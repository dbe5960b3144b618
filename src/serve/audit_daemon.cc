#include "serve/audit_daemon.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/strings.h"
#include "storage/value.h"

namespace dbfa {
namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::string ServeFinding::ToString() const {
  return StrFormat("%s\t%llu\t%s", instance.c_str(),
                   static_cast<unsigned long long>(snapshot_id),
                   mod.ToString().c_str());
}

AuditDaemon::AuditDaemon(ServeOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<AuditDaemon>> AuditDaemon::Start(ServeOptions options) {
  if (options.root.empty()) {
    return Status::InvalidArgument("dbfa_serve: root directory is required");
  }
  if (options.shards == 0) options.shards = 4;
  // Parallelism comes from the shards; nested per-repo pools would
  // oversubscribe the machine shards-fold.
  options.carve.num_threads = 1;

  std::error_code ec;
  std::filesystem::create_directories(options.root, ec);
  if (ec) {
    return Status::IoError(StrFormat("dbfa_serve: cannot create root %s: %s",
                                     options.root.c_str(),
                                     ec.message().c_str()));
  }

  std::unique_ptr<AuditDaemon> daemon(new AuditDaemon(std::move(options)));
  std::string feed_path =
      (std::filesystem::path(daemon->options_.root) / kFeedFile).string();
  // Open outside feed_mu_: no lock may wrap blocking file I/O it does not
  // have to (docs/lock_order.md). No worker exists yet, so publishing the
  // handle under the lock afterwards is race-free.
  DBFA_ASSIGN_OR_RETURN(AppendOnlyFile feed, AppendOnlyFile::Open(feed_path));
  {
    MutexLock lock(&daemon->feed_mu_);
    daemon->feed_ = std::move(feed);
  }
  for (size_t s = 0; s < daemon->options_.shards; ++s) {
    daemon->queues_.push_back(std::make_unique<BoundedQueue<CaptureTask>>(
        daemon->options_.queue_capacity));
  }
  daemon->pool_ = std::make_unique<ThreadPool>(daemon->options_.shards);
  for (size_t s = 0; s < daemon->options_.shards; ++s) {
    AuditDaemon* self = daemon.get();
    daemon->pool_->Submit([self, s] { self->ShardLoop(s); });
  }
  return daemon;
}

AuditDaemon::~AuditDaemon() {
  // dbfa-lint: allow(nodiscard-status): destructors cannot propagate; an
  // explicit Shutdown() call is how callers observe the final status.
  (void)Shutdown();
}

Result<size_t> AuditDaemon::AddInstance(std::string name,
                                        const CarverConfig& config) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("dbfa_serve: bad instance name '%s'", name.c_str()));
  }
  {
    MutexLock lock(&state_mu_);
    if (!accepting_) {
      return Status::FailedPrecondition("dbfa_serve: daemon is stopped");
    }
  }
  std::string dir = (std::filesystem::path(options_.root) / "instances" / name)
                        .string();
  MutexLock lock(&instances_mu_);
  for (const Instance& inst : instances_) {
    if (inst.name == name) {
      return Status::AlreadyExists(
          StrFormat("dbfa_serve: instance '%s' already registered",
                    name.c_str()));
    }
  }
  size_t id = instances_.size();
  Instance inst;
  inst.name = name;
  inst.dir = std::move(dir);
  inst.config = config;
  instances_.push_back(std::move(inst));
  {
    MutexLock stats_lock(&stats_mu_);
    InstanceServeStats stats;
    stats.name = std::move(name);
    instance_stats_.push_back(std::move(stats));
  }
  return id;
}

Status AuditDaemon::SubmitCapture(size_t instance, Bytes image,
                                  const AuditLog& log) {
  {
    MutexLock lock(&instances_mu_);
    if (instance >= instances_.size()) {
      return Status::InvalidArgument(
          StrFormat("dbfa_serve: unknown instance %zu", instance));
    }
  }
  {
    MutexLock lock(&state_mu_);
    if (!accepting_) {
      return Status::FailedPrecondition("dbfa_serve: daemon is stopped");
    }
    ++pending_;  // optimistic: rolled back on reject below
  }
  {
    MutexLock lock(&stats_mu_);
    ++instance_stats_[instance].captures_submitted;
  }

  CaptureTask task;
  task.instance = instance;
  task.image = std::move(image);
  task.log = log;
  task.submitted = Clock::now();

  BoundedQueue<CaptureTask>& queue = *queues_[instance % queues_.size()];
  QueuePush outcome = options_.block_on_full ? queue.Push(std::move(task))
                                             : queue.TryPush(std::move(task));
  switch (outcome) {
    case QueuePush::kAccepted:
      return Status::Ok();
    case QueuePush::kFull: {
      {
        MutexLock lock(&stats_mu_);
        ++instance_stats_[instance].captures_rejected;
      }
      FinishTask();
      return Status::Unavailable(StrFormat(
          "dbfa_serve: shard %zu queue full (capacity %zu), capture dropped",
          instance % queues_.size(), queue.capacity()));
    }
    case QueuePush::kClosed: {
      // Shutdown raced the intake check: the capture was never accepted
      // and is not a backpressure rejection — unwind the submit count.
      {
        MutexLock lock(&stats_mu_);
        --instance_stats_[instance].captures_submitted;
      }
      FinishTask();
      return Status::FailedPrecondition("dbfa_serve: daemon is stopped");
    }
  }
  return Status::Internal("dbfa_serve: unreachable push outcome");
}

void AuditDaemon::Drain() {
  MutexLock lock(&state_mu_);
  while (pending_ > 0) drained_.Wait(&state_mu_);
}

void AuditDaemon::FinishTask() {
  MutexLock lock(&state_mu_);
  --pending_;
  if (pending_ == 0) drained_.SignalAll();
}

void AuditDaemon::ShardLoop(size_t shard) {
  BoundedQueue<CaptureTask>& queue = *queues_[shard];
  CaptureTask task;
  while (queue.Pop(&task)) {
    Instance* inst = nullptr;
    {
      MutexLock lock(&instances_mu_);
      inst = &instances_[task.instance];  // stable: deque never relocates
    }
    Clock::time_point start = Clock::now();
    Status status = ProcessCapture(inst, &task);
    Clock::time_point end = Clock::now();
    {
      MutexLock lock(&stats_mu_);
      InstanceServeStats& stats = instance_stats_[task.instance];
      stats.ingest_seconds += SecondsBetween(start, end);
      if (status.ok()) {
        ++stats.captures_completed;
      } else {
        ++stats.captures_failed;
        stats.last_error = status.ToString();
      }
      ingest_latencies_.push_back(SecondsBetween(task.submitted, end));
    }
    task = CaptureTask();  // release the image before blocking on Pop
    FinishTask();
  }
}

Status AuditDaemon::ProcessCapture(Instance* inst, CaptureTask* task) {
  if (inst->repo == nullptr) {
    DBFA_ASSIGN_OR_RETURN(
        inst->repo,
        SnapshotRepo::Create(inst->dir, inst->config, options_.carve));
  }
  DBFA_ASSIGN_OR_RETURN(IngestStats ingest,
                        inst->repo->Ingest(ByteView(task->image)));
  {
    MutexLock lock(&stats_mu_);
    InstanceServeStats& stats = instance_stats_[task->instance];
    ++stats.snapshots;
    stats.pages_total += ingest.pages_total;
    stats.pages_reused += ingest.pages_reused;
    stats.artifacts_reused += ingest.artifacts_reused;
    stats.artifacts_carved += ingest.artifacts_carved;
  }

  // Re-match only records on pages the delta touched; the first capture
  // (last_ingested 0) is a full Figure-4 match. Both go through the repo's
  // log index, so an instance indexes each log entry once.
  DBFA_ASSIGN_OR_RETURN(
      IncrementalDetection inc,
      inst->repo->DetectIncremental(inst->last_ingested, ingest.snapshot_id,
                                    task->log));
  // Advance the incremental base only once every finding is on the feed:
  // after a failed emit the next capture re-matches this delta too.
  DBFA_RETURN_IF_ERROR(EmitFindings(inst, task->instance, ingest.snapshot_id,
                                    inc.modifications, task->submitted));
  inst->last_ingested = ingest.snapshot_id;
  return Status::Ok();
}

Status AuditDaemon::EmitFindings(
    Instance* inst, size_t instance_id, uint64_t snapshot_id,
    const std::vector<UnattributedModification>& mods,
    Clock::time_point submitted) {
  for (const UnattributedModification& mod : mods) {
    bool fresh;
    {
      // Dedup on the artifact's identity key: the same finding is emitted
      // at most once until ResolveFinding clears its entry.
      MutexLock lock(&dedup_mu_);
      fresh = inst->reported.insert(mod.Key()).second;
    }
    if (!fresh) continue;
    ServeFinding finding;
    finding.instance = inst->name;
    finding.snapshot_id = snapshot_id;
    finding.mod = mod;
    double latency = SecondsBetween(submitted, Clock::now());
    std::string line = finding.ToString();
    line += '\n';
    Status appended;
    {
      // dbfa-lockcheck: allow(blocking-under-lock): feed_mu_ IS the feed's
      // serialization point — the append and the in-memory mirror must be
      // atomic together so Findings() order matches feed order. Leaf rank;
      // nothing is ever acquired under it.
      MutexLock lock(&feed_mu_);
      appended = feed_.Append(line);
      if (appended.ok()) findings_.push_back(std::move(finding));
    }
    if (!appended.ok()) {
      MutexLock lock(&dedup_mu_);
      inst->reported.erase(mod.Key());
      return appended;
    }
    MutexLock lock(&stats_mu_);
    ++instance_stats_[instance_id].findings;
    finding_latencies_.push_back(latency);
  }
  return Status::Ok();
}

Status AuditDaemon::Shutdown() {
  {
    MutexLock lock(&state_mu_);
    if (stopped_) return shutdown_status_;
    accepting_ = false;
  }
  for (auto& queue : queues_) queue->Close();
  pool_.reset();  // joins the shard loops after they drain their queues
  // Detach the handle under the lock, close it outside: closing may block,
  // and the workers that could race the handle are joined.
  AppendOnlyFile feed;
  {
    MutexLock lock(&feed_mu_);
    feed = std::move(feed_);
  }
  feed = AppendOnlyFile();  // closes the detached handle
  ServeStats final_stats = Stats();
  final_stats.stopped = true;
  Status invariants = final_stats.CheckInvariants();
  final_stats.invariants =
      invariants.ok() ? "ok" : invariants.ToString();
  std::string stats_path =
      (std::filesystem::path(options_.root) / kStatsFile).string();
  Status write_status = WriteFile(stats_path, final_stats.ToJson());
  Status result = invariants.ok() ? write_status : invariants;
  MutexLock lock(&state_mu_);
  stopped_ = true;
  shutdown_status_ = result;
  return result;
}

ServeStats AuditDaemon::Stats() const {
  ServeStats out;
  out.shards = queues_.size();
  out.queue_capacity = queues_.empty() ? 0 : queues_[0]->capacity();
  {
    MutexLock lock(&state_mu_);
    out.stopped = stopped_;
  }
  for (const auto& queue : queues_) {
    ShardQueueStats q;
    q.pushed = queue->pushed();
    q.popped = queue->popped();
    q.rejected = queue->rejected();
    q.high_water = queue->high_water();
    q.depth = queue->size();
    out.shard_queues.push_back(q);
  }
  std::vector<double> ingest_samples;
  std::vector<double> finding_samples;
  {
    MutexLock lock(&stats_mu_);
    out.instances = instance_stats_;
    ingest_samples = ingest_latencies_;
    finding_samples = finding_latencies_;
  }
  for (const InstanceServeStats& inst : out.instances) {
    out.captures_submitted += inst.captures_submitted;
    out.captures_rejected += inst.captures_rejected;
    out.captures_completed += inst.captures_completed;
    out.captures_failed += inst.captures_failed;
    out.snapshots += inst.snapshots;
    out.findings += inst.findings;
    out.findings_resolved += inst.findings_resolved;
    out.pages_total += inst.pages_total;
    out.pages_reused += inst.pages_reused;
    out.artifacts_reused += inst.artifacts_reused;
    out.artifacts_carved += inst.artifacts_carved;
  }
  out.ingest_latency = SummarizeLatencies(std::move(ingest_samples));
  out.finding_latency = SummarizeLatencies(std::move(finding_samples));
  Status invariants = out.CheckInvariants();
  out.invariants = invariants.ok() ? "ok" : invariants.ToString();
  return out;
}

std::vector<ServeFinding> AuditDaemon::Findings() const {
  MutexLock lock(&feed_mu_);
  return findings_;
}

Result<bool> AuditDaemon::ResolveFinding(
    size_t instance, const UnattributedModification& finding) {
  Instance* inst = nullptr;
  {
    MutexLock lock(&instances_mu_);
    if (instance >= instances_.size()) {
      return Status::NotFound(
          StrFormat("dbfa_serve: no instance with id %zu", instance));
    }
    // deque: stable address; registration fields are immutable.
    inst = &instances_[instance];
  }
  bool cleared;
  {
    MutexLock lock(&dedup_mu_);
    cleared = inst->reported.erase(finding.Key()) > 0;
  }
  if (cleared) {
    MutexLock lock(&stats_mu_);
    ++instance_stats_[instance].findings_resolved;
  }
  return cleared;
}

}  // namespace dbfa
