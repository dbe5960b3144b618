// The global lock acquisition order — the single source of truth for
// deadlock freedom (docs/lock_order.md).
//
// Every dbfa::Mutex that can ever be held while another lock is taken is
// constructed with a (name, rank) identity from this header. The rule is
// one line: a thread may only acquire a mutex whose rank is strictly
// greater than the rank of every mutex it already holds. Because ranks
// form a total order, following the rule makes lock-order cycles — and
// therefore lock-order deadlocks — impossible by construction.
//
// The rule is enforced three ways, none of which depends on a test
// happening to interleave two locks:
//   - Clang thread-safety `acquired_before`/`acquired_after` annotations
//     on the members (DBFA_ACQUIRED_BEFORE/AFTER, src/common/mutex.h);
//   - `tools/dbfa_lockcheck/` statically extracts every acquisition scope
//     across the tree, checks nesting against these ranks, and rejects
//     cycles and blocking calls made under a ranked lock;
//   - under -DDBFA_LOCK_DEBUG=ON, Mutex::Lock validates the order at
//     runtime against a process-wide observed-order graph and aborts with
//     the witness cycle on the first inconsistent pair (common/lock_debug.h).
//
// To add a mutex: pick the outermost point in this order at which it can
// be acquired, insert a rank there (values are spaced by 10 so new locks
// fit between existing ones), name the mutex "<subsystem>/<role>", and
// run `python3 tools/dbfa_lockcheck/dbfa_lockcheck.py` — it fails if the
// observed nesting disagrees with the rank you chose.
#ifndef DBFA_COMMON_LOCK_RANK_H_
#define DBFA_COMMON_LOCK_RANK_H_

namespace dbfa {
namespace lock_rank {

/// Rank of a mutex constructed without a place in the global order (the
/// default). Unranked mutexes must never participate in nested locking;
/// dbfa_lockcheck rejects them in any multi-lock scope.
inline constexpr int kUnranked = -1;

/// The global order, outermost (acquired first) to innermost (leaf).
/// Lower rank = acquired earlier. dbfa_lockcheck parses this enum, so
/// entries must stay of the form `kName = <integer literal>,`.
enum Rank : int {
  // -- continuous-audit daemon (src/serve/audit_daemon.h) ----------------
  // Intake state: accepting/stopped flags and the pending-capture count
  // Drain() waits on. Held alone except for the condition wait.
  kAuditState = 10,
  // Instance registry. AddInstance publishes per-instance stats while
  // still holding it, so it precedes kAuditStats.
  kAuditInstances = 20,
  // Per-instance and latency counters.
  kAuditStats = 30,
  // Per-instance finding-dedup sets; ResolveFinding() clears entries from
  // outside the owning shard, so the sets need a lock of their own. Held
  // alone (the emit path acquires it, then kAuditFeed, sequentially).
  kAuditDedup = 35,
  // Findings feed serialization point: the feed file and the in-memory
  // findings vector. Leaf within the daemon; the append I/O happens
  // under it by design (see docs/lock_order.md).
  kAuditFeed = 40,

  // -- meta-query session (src/metaquery/session.h) ----------------------
  // Lazy worker-pool creation; a pool may be constructed under it.
  kSessionPool = 50,
  // Spill counters of the most recently finished query. Held alone, for a
  // struct copy.
  kSessionStats = 55,

  // -- common infrastructure ---------------------------------------------
  // ThreadPool task queue; taken by Submit/Wait/ParallelFor and by every
  // worker between tasks.
  kThreadPool = 60,
  // BoundedQueue state: taken by producers (daemon submitters) and by the
  // shard workers' Pop loop.
  kBoundedQueue = 70,
  // SpillManager directory + file-id state.
  kSpillManager = 80,
  // StringPool shard tables: the innermost lock in the tree — interning
  // runs inside carve workers that may already hold queue or pool locks
  // upstream. Shards of one pool are never held together (the shard
  // choice is a pure function of the string's content hash).
  kStringPoolShard = 90,
};

}  // namespace lock_rank
}  // namespace dbfa

#endif  // DBFA_COMMON_LOCK_RANK_H_
