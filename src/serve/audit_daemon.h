// AuditDaemon: a long-running continuous-audit supervisor for a fleet of
// DBMS instances (docs/continuous_audit.md).
//
// The paper's workflow (PAPER.md III-A, Figure 4) audits one capture at a
// time; operationally, captures arrive continuously from many instances.
// The daemon turns the one-shot pipeline into a service: each submitted
// capture is ingested into the instance's SnapshotRepo (content-addressed,
// so warm captures cost only their delta), the delta is re-matched against
// the instance's audit log, and any unattributed modification is appended
// exactly once to an append-only findings feed.
//
// Concurrency model: instances are sharded over N bounded work queues
// (instance id mod N), one long-lived drain loop per shard on a ThreadPool.
// A given instance's captures are therefore processed in submission order
// by a single worker — per-instance repo state needs no locking — while
// distinct instances progress in parallel. The queue bound is the
// backpressure contract: a producer outrunning the fleet either gets an
// immediate Status::Unavailable (reject policy, default) or blocks until a
// slot frees (delay policy), so queued capture images can never hold more
// than shards * capacity images in memory.
#ifndef DBFA_SERVE_AUDIT_DAEMON_H_
#define DBFA_SERVE_AUDIT_DAEMON_H_

#include <chrono>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bounded_queue.h"
#include "common/bytes.h"
#include "common/file_io.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/carver.h"
#include "detective/dbdetective.h"
#include "engine/audit_log.h"
#include "serve/serve_stats.h"
#include "snapshot/snapshot_repo.h"

namespace dbfa {

struct ServeOptions {
  /// Daemon root directory; holds one SnapshotRepo per instance under
  /// instances/<name>/, the findings feed, and the stats JSON.
  std::string root;
  /// Work-queue shards == worker threads. 0 means 4.
  size_t shards = 4;
  /// Per-shard queue bound. 0 is clamped to 1 (see BoundedQueue).
  size_t queue_capacity = 64;
  /// Full-queue policy: false = reject (SubmitCapture returns
  /// Status::Unavailable immediately), true = delay (block for a slot).
  bool block_on_full = false;
  /// Carve options for every instance repository. num_threads is forced
  /// to 1: parallelism comes from the shards, not from nested pools.
  CarveOptions carve;
};

/// One entry of the findings feed.
struct ServeFinding {
  std::string instance;
  uint64_t snapshot_id = 0;  // snapshot whose ingest surfaced it
  UnattributedModification mod;

  /// The feed line format: "<instance>\t<snapshot>\t<modification>".
  std::string ToString() const;
};

class AuditDaemon {
 public:
  /// Creates the root directory and opens the findings feed (append mode:
  /// restarted daemons extend the feed, never rewrite it).
  static Result<std::unique_ptr<AuditDaemon>> Start(ServeOptions options);

  /// Stops the daemon if still running (best effort; errors from the
  /// implicit Stop are dropped — call Stop() explicitly to observe them).
  ~AuditDaemon();

  AuditDaemon(const AuditDaemon&) = delete;
  AuditDaemon& operator=(const AuditDaemon&) = delete;

  const ServeOptions& options() const { return options_; }

  /// Registers an instance and returns its id (dense, starting at 0). The
  /// instance's repository is created lazily by its shard worker on first
  /// capture, under instances/<name>/.
  Result<size_t> AddInstance(std::string name, const CarverConfig& config);

  /// Enqueues one capture (storage image + the audit log to match against;
  /// the log is copied, so the caller's keeps growing independently).
  /// Reject policy: Status::Unavailable when the instance's shard queue is
  /// full. Delay policy: blocks. kFailedPrecondition after Stop().
  Status SubmitCapture(size_t instance, Bytes image, const AuditLog& log);

  /// Blocks until every accepted capture has been fully processed.
  void Drain();

  /// Graceful shutdown: stops intake, drains every accepted in-flight
  /// capture, joins the workers, writes <root>/serve_stats.json, and
  /// returns the final invariant check. Idempotent; the first call's
  /// result is sticky.
  Status Shutdown();

  /// Point-in-time stats snapshot (safe while running; the invariant
  /// check is only meaningful once idle).
  ServeStats Stats() const;

  /// Findings emitted so far, in feed order.
  std::vector<ServeFinding> Findings() const;

  /// Remediation hook: marks `finding` handled for `instance` by clearing
  /// its dedup entry, so a recurrence in a later capture is re-reported
  /// (the feed keeps the original line; resolution never rewrites it).
  /// Returns whether a dedup entry was actually cleared; NotFound for an
  /// unknown instance id. Safe while the daemon is running.
  Result<bool> ResolveFinding(size_t instance,
                              const UnattributedModification& finding);

  static constexpr const char* kFeedFile = "findings.feed";
  static constexpr const char* kStatsFile = "serve_stats.json";

 private:
  using Clock = std::chrono::steady_clock;

  struct CaptureTask {
    size_t instance = 0;
    Bytes image;
    AuditLog log;
    Clock::time_point submitted;
  };

  /// Registration fields are immutable after AddInstance; the repo/
  /// detection state below them is touched only by the instance's shard
  /// worker (single-threaded by construction — see file comment).
  struct Instance {
    std::string name;
    std::string dir;
    CarverConfig config;

    std::unique_ptr<SnapshotRepo> repo;
    uint64_t last_ingested = 0;  // 0 = nothing ingested yet
    /// Dedup keys (UnattributedModification::Key) of emitted findings.
    /// Guarded by the daemon's dedup_mu_ — shard workers insert on emit,
    /// ResolveFinding erases from arbitrary threads. (A nested struct
    /// member cannot carry DBFA_GUARDED_BY on the outer class's mutex.)
    std::set<std::string> reported;
  };

  explicit AuditDaemon(ServeOptions options);

  void ShardLoop(size_t shard);
  /// Ingest + detect + emit for one capture. Returns the first error; the
  /// shard loop records it and keeps serving.
  Status ProcessCapture(Instance* inst, CaptureTask* task);
  /// Appends each not-yet-reported finding to the feed. A failed append
  /// returns the I/O error and leaves that finding unreported, so a later
  /// capture reports it again.
  Status EmitFindings(Instance* inst, size_t instance_id,
                      uint64_t snapshot_id,
                      const std::vector<UnattributedModification>& mods,
                      Clock::time_point submitted);
  void FinishTask();

  ServeOptions options_;
  std::vector<std::unique_ptr<BoundedQueue<CaptureTask>>> queues_;
  std::unique_ptr<ThreadPool> pool_;

  /// Lock order within the daemon (common/lock_rank.h, enforced by
  /// dbfa_lockcheck): state < instances < stats < dedup < feed. Only
  /// instances -> stats actually nests today (AddInstance publishes the
  /// instance's stats slot atomically with its registration); the rest of
  /// the order exists so any future nesting has one documented direction.
  mutable Mutex instances_mu_ DBFA_ACQUIRED_BEFORE(stats_mu_){
      "audit_daemon/instances", lock_rank::kAuditInstances};
  /// deque: growth never moves existing elements, so shard workers may
  /// hold an Instance* across queue waits while AddInstance appends.
  std::deque<Instance> instances_ DBFA_GUARDED_BY(instances_mu_);

  mutable Mutex state_mu_{"audit_daemon/state", lock_rank::kAuditState};
  bool accepting_ DBFA_GUARDED_BY(state_mu_) = true;
  bool stopped_ DBFA_GUARDED_BY(state_mu_) = false;
  Status shutdown_status_ DBFA_GUARDED_BY(state_mu_) = Status::Ok();
  /// Accepted-but-unfinished captures; Drain() waits for 0.
  size_t pending_ DBFA_GUARDED_BY(state_mu_) = 0;
  CondVar drained_;

  /// Guards every Instance::reported set (see that member's comment).
  /// Held alone: the emit path takes dedup -> feed -> stats sequentially,
  /// never nested.
  mutable Mutex dedup_mu_{"audit_daemon/dedup", lock_rank::kAuditDedup};

  mutable Mutex stats_mu_ DBFA_ACQUIRED_AFTER(instances_mu_){
      "audit_daemon/stats", lock_rank::kAuditStats};
  std::vector<InstanceServeStats> instance_stats_ DBFA_GUARDED_BY(stats_mu_);
  std::vector<double> ingest_latencies_ DBFA_GUARDED_BY(stats_mu_);
  std::vector<double> finding_latencies_ DBFA_GUARDED_BY(stats_mu_);

  mutable Mutex feed_mu_{"audit_daemon/feed", lock_rank::kAuditFeed};
  AppendOnlyFile feed_ DBFA_GUARDED_BY(feed_mu_);
  std::vector<ServeFinding> findings_ DBFA_GUARDED_BY(feed_mu_);
};

}  // namespace dbfa

#endif  // DBFA_SERVE_AUDIT_DAEMON_H_
