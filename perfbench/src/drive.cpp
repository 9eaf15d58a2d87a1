#include "drive.h"

#include <atomic>
#include <thread>

#include "harness.h"
#include "serve/fdrms_service.h"
#include "shard/sharded_service.h"

namespace perfbench {

using fdrms::FdRms;
using fdrms::Status;

namespace {

/// The shard whose writer runs on this thread, latched by on_apply so the
/// on_publish that follows it (same thread, same batch) knows its shard.
/// Publications on any other thread (the version-0 one inside Start) stay
/// at -1 and are ignored: they cover no op.
thread_local int tls_shard = -1;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Sleeps while the deadline is far, then spins, so an open-loop schedule
/// is kept to a few microseconds instead of the sleep granularity.
void WaitUntil(int64_t due_ns, const std::atomic<bool>* stop = nullptr) {
  for (;;) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 150'000));
    } else {
      CpuRelax();
    }
  }
}

class SingleTarget final : public Target {
 public:
  SingleTarget(const ServiceConfig& c, VisibilityLog* log)
      : service_(c.dim, Options(c, log)) {
    log->SetRoute([](int) { return 0; });
  }

  Status Start(const Tuples& initial) override {
    return service_.Start(initial);
  }
  Status Submit(FdRms::BatchOp op) override {
    return service_.Submit(std::move(op));
  }
  Status Flush() override { return service_.Flush(); }
  Status Stop() override { return service_.Stop(); }
  bool resumed() const override { return service_.resumed(); }
  int num_shards() const override { return 1; }
  int Route(int) const override { return 0; }
  ReadSample Read() const override {
    auto snap = service_.Query();
    return {snap->ids.size(), snap->ops_applied + snap->ops_rejected};
  }
  View Final() const override {
    auto snap = service_.Query();
    return {snap->ids, snap->points, snap->ops_rejected};
  }
  double WriterBusySeconds(int) const override {
    return service_.Query()->writer_busy_seconds;
  }
  const FdRms& ShardAlgorithm(int) const override {
    return service_.algorithm();
  }
  fdrms::obs::RegistrySnapshot Scrape() const override {
    return service_.registry()->Snapshot();
  }

 private:
  static fdrms::FdRmsServiceOptions Options(const ServiceConfig& c,
                                            VisibilityLog* log) {
    fdrms::FdRmsServiceOptions o;
    o.algo = c.algo;
    o.on_apply = [log](const Ops& batch) {
      log->OnApply(batch.data(), batch.size());
    };
    o.on_publish = [log](const fdrms::ResultSnapshot&) { log->OnPublish(); };
    return o;
  }

  fdrms::FdRmsService service_;
};

class ShardedTarget final : public Target {
 public:
  ShardedTarget(const ServiceConfig& c, VisibilityLog* log)
      : service_(c.dim, Options(c, log)) {
    log->SetRoute([this](int id) { return service_.router().Route(id); });
  }

  Status Start(const Tuples& initial) override {
    return service_.Start(initial);
  }
  Status Submit(FdRms::BatchOp op) override {
    return service_.Submit(std::move(op));
  }
  Status Flush() override { return service_.Flush(); }
  Status Stop() override { return service_.Stop(); }
  bool resumed() const override { return service_.resumed(); }
  int num_shards() const override { return service_.num_shards(); }
  int Route(int id) const override { return service_.router().Route(id); }
  ReadSample Read() const override {
    auto merged = service_.Query();
    return {merged->ids.size(), merged->ops_applied + merged->ops_rejected};
  }
  View Final() const override {
    auto merged = service_.Query();
    return {merged->ids, merged->points, merged->ops_rejected};
  }
  double WriterBusySeconds(int s) const override {
    return service_.shard(s).Query()->writer_busy_seconds;
  }
  const FdRms& ShardAlgorithm(int s) const override {
    return service_.shard(s).algorithm();
  }
  fdrms::obs::RegistrySnapshot Scrape() const override {
    return service_.registry()->Snapshot();
  }

 private:
  static fdrms::ShardedServiceOptions Options(const ServiceConfig& c,
                                              VisibilityLog* log) {
    fdrms::ShardedServiceOptions o;
    o.num_shards = c.num_shards;
    o.merged_budget_r = c.merged_budget_r;
    o.shard.algo = c.algo;
    o.shard.on_apply = [log](const Ops& batch) {
      log->OnApply(batch.data(), batch.size());
    };
    o.shard.on_publish = [log](const fdrms::ResultSnapshot&) {
      log->OnPublish();
    };
    if (!c.persist_base.empty()) {
      // Exit saves only: the writers never persist on a batch cadence, so
      // the timed replay carries no file I/O; Start and Stop commit.
      o.shard.persist_every_batches = size_t{1} << 40;
      o.shard.persist_path = c.persist_base;
      if (c.resume) o.shard.resume_path = c.persist_base;
      o.manifest_commit_every_ms = 0;
    }
    return o;
  }

  fdrms::ShardedFdRmsService service_;
};

/// First index whose cumulative count covers stream position `seq`,
/// advancing `cursor` monotonically (positions arrive in stream order).
int64_t StampFor(const std::vector<int64_t>& t, const std::vector<uint64_t>& n,
                 uint64_t seq, size_t* cursor) {
  while (*cursor < n.size() && n[*cursor] <= seq) ++*cursor;
  return *cursor < n.size() ? t[*cursor] : -1;
}

}  // namespace

void VisibilityLog::Reserve(size_t per_shard) {
  for (Shard& s : shards_) {
    s.apply_t.reserve(per_shard);
    s.apply_n.reserve(per_shard);
    s.pub_t.reserve(per_shard);
    s.pub_n.reserve(per_shard);
  }
}

void VisibilityLog::OnApply(const FdRms::BatchOp* first, size_t count) {
  const int s = route_(first->id);
  tls_shard = s;
  Shard& sh = shards_[static_cast<size_t>(s)];
  sh.consumed += count;
  sh.apply_t.push_back(NowNs());
  sh.apply_n.push_back(sh.consumed);
}

void VisibilityLog::OnPublish() {
  if (tls_shard < 0) return;
  Shard& sh = shards_[static_cast<size_t>(tls_shard)];
  sh.pub_t.push_back(NowNs());
  sh.pub_n.push_back(sh.consumed);
}

std::unique_ptr<Target> Target::Make(const ServiceConfig& config,
                                     VisibilityLog* log) {
  if (config.num_shards == 1 && config.persist_base.empty()) {
    return std::make_unique<SingleTarget>(config, log);
  }
  return std::make_unique<ShardedTarget>(config, log);
}

Status RunRound(Target* target, VisibilityLog* log, const Tuples& initial,
                const Ops& ops, const LoadSpec& spec, RoundResult* out) {
  *out = RoundResult{};
  const size_t n = ops.size();

  const int64_t setup_start = NowNs();
  FDRMS_RETURN_NOT_OK(target->Start(initial));
  out->setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  const int num_shards = target->num_shards();
  if (num_shards != log->num_shards()) {
    return Status::Internal("service has " + std::to_string(num_shards) +
                            " shards, the log expects " +
                            std::to_string(log->num_shards()));
  }
  std::vector<int> shard_of(n);
  std::vector<size_t> per_shard(static_cast<size_t>(num_shards), 0);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = target->Route(ops[i].id);
    ++per_shard[static_cast<size_t>(shard_of[i])];
  }
  size_t most = 0;
  for (size_t c : per_shard) most = std::max(most, c);
  // Writers are idle until the first submit, so this cannot race them.
  log->Reserve(most + 16);

  std::vector<int64_t> due(n, 0);
  std::vector<int64_t> seq(n, -1);  // position in the shard's stream
  std::vector<uint64_t> next_seq(static_cast<size_t>(num_shards), 0);
  out->submit_ns.resize(n);
  if (spec.open_loop) out->late_us.resize(n);

  std::atomic<uint64_t> submitted{0};
  std::atomic<bool> stop_reader{false};
  std::vector<std::pair<int64_t, uint64_t>> backlog;  // (t, submitted-consumed)
  const int64_t run_start = NowNs();
  int64_t reader_end = run_start;
  std::thread reader;
  if (spec.read_rate > 0.0) {
    reader = std::thread([&] {
      const double interval = 1e9 / spec.read_rate;
      for (int64_t j = 0;; ++j) {
        const int64_t d =
            run_start + static_cast<int64_t>(static_cast<double>(j) * interval);
        WaitUntil(d, &stop_reader);
        if (stop_reader.load(std::memory_order_relaxed)) break;
        const uint64_t sub = submitted.load(std::memory_order_relaxed);
        const Target::ReadSample read = target->Read();
        const int64_t end = NowNs();
        out->query_us.push_back(static_cast<double>(end - d) * 1e-3);
        reader_end = end;
        backlog.emplace_back(end, sub > read.consumed ? sub - read.consumed : 0);
      }
    });
  }

  const double interval = spec.open_loop ? 1e9 / spec.submit_rate : 0.0;
  int64_t last_submit = run_start;
  for (size_t i = 0; i < n; ++i) {
    int64_t d = 0;
    if (spec.open_loop) {
      d = run_start + static_cast<int64_t>(static_cast<double>(i) * interval);
      WaitUntil(d);
    }
    const int64_t s0 = NowNs();
    if (!spec.open_loop) d = s0;
    const Status st = target->Submit(ops[i]);
    const int64_t s1 = NowNs();
    due[i] = d;
    out->submit_ns[i] = static_cast<double>(s1 - s0);
    if (spec.open_loop) out->late_us[i] = static_cast<double>(s0 - d) * 1e-3;
    last_submit = s0;
    ++out->attempted;
    if (st.ok()) {
      seq[i] = static_cast<int64_t>(
          next_seq[static_cast<size_t>(shard_of[i])]++);
      submitted.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++out->failed;
    }
  }
  const Status flushed = target->Flush();
  stop_reader.store(true);
  if (reader.joinable()) reader.join();
  if (!flushed.ok()) {
    (void)target->Stop();
    return flushed;
  }

  // Untimed warm-up: the first read after the last publication builds the
  // merged view, and the next ones bring it into cache.
  for (int k = 0; spec.probe_samples > 0 && k < 256; ++k) (void)target->Read();
  for (int k = 0; k < spec.probe_samples; ++k) {
    constexpr int kCallsPerSample = 8;
    size_t seen = 0;
    const int64_t t0 = NowNs();
    for (int c = 0; c < kCallsPerSample; ++c) seen += target->Read().size;
    const int64_t t1 = NowNs();
    if (seen == 0) return Status::Internal("a probe read saw an empty result");
    out->query_us.push_back(static_cast<double>(t1 - t0) * 1e-3 /
                            kCallsPerSample);
  }
  out->final_view = target->Final();
  FDRMS_RETURN_NOT_OK(target->Stop());

  // Everything below reads the writer-side logs, safe now that Stop joined
  // every writer.
  out->failed += out->final_view.ops_rejected;
  out->shard_ids.resize(static_cast<size_t>(num_shards));
  out->shard_m.resize(static_cast<size_t>(num_shards));
  out->shard_consumed.resize(static_cast<size_t>(num_shards));
  out->shard_busy_s.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const size_t si = static_cast<size_t>(s);
    const FdRms& algo = target->ShardAlgorithm(s);
    out->shard_ids[si] = algo.Result();
    out->shard_m[si] = algo.current_m();
    out->shard_consumed[si] = log->shard(s).consumed;
    out->shard_busy_s[si] = target->WriterBusySeconds(s);
    out->apply_events += log->shard(s).apply_t.size();
    out->publications += log->shard(s).pub_t.size();
  }
  out->registry = target->Scrape();

  std::vector<size_t> apply_cursor(static_cast<size_t>(num_shards), 0);
  std::vector<size_t> pub_cursor(static_cast<size_t>(num_shards), 0);
  int64_t last_visible = run_start;
  out->visible_us.reserve(n);
  out->apply_us.reserve(n);
  out->gap_us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (seq[i] < 0) continue;
    const size_t s = static_cast<size_t>(shard_of[i]);
    const VisibilityLog::Shard& sh = log->shard(shard_of[i]);
    const uint64_t j = static_cast<uint64_t>(seq[i]);
    const int64_t applied = StampFor(sh.apply_t, sh.apply_n, j, &apply_cursor[s]);
    const int64_t visible = StampFor(sh.pub_t, sh.pub_n, j, &pub_cursor[s]);
    if (applied < 0 || visible < 0) {
      return Status::Internal("op " + std::to_string(i) +
                              " was never applied and published");
    }
    out->apply_us.push_back(static_cast<double>(applied - due[i]) * 1e-3);
    out->visible_us.push_back(static_cast<double>(visible - due[i]) * 1e-3);
    out->gap_us.push_back(static_cast<double>(visible - applied) * 1e-3);
    last_visible = std::max(last_visible, visible);
  }
  const int64_t first_due = n > 0 ? due[0] : run_start;
  out->run_s = static_cast<double>(last_visible - first_due) * 1e-9;
  const uint64_t applied_ops = submitted.load() - out->final_view.ops_rejected;
  out->ops_per_s =
      out->run_s > 0.0 ? static_cast<double>(applied_ops) / out->run_s : 0.0;
  double busiest = 0.0;
  for (double b : out->shard_busy_s) busiest = std::max(busiest, b);
  out->capacity_ops_per_s =
      busiest > 0.0 ? static_cast<double>(applied_ops) / busiest : 0.0;
  if (n > 1 && last_submit > first_due) {
    out->achieved_submit_rate = static_cast<double>(n - 1) /
                                (static_cast<double>(last_submit - first_due) *
                                 1e-9);
  }
  if (spec.read_rate > 0.0 && reader_end > run_start) {
    out->achieved_read_rate =
        static_cast<double>(out->query_us.size()) /
        (static_cast<double>(reader_end - run_start) * 1e-9);
  }
  // Backlog growth: compare the first and last quarters of the submit
  // window; a sustainable rate drains between arrivals, so its backlog
  // stays flat.
  if (backlog.size() >= 16 && last_submit > run_start) {
    const int64_t span = last_submit - run_start;
    double q1 = 0.0, q4 = 0.0;
    int n1 = 0, n4 = 0;
    for (const auto& [t, b] : backlog) {
      if (t < run_start + span / 4) {
        q1 += static_cast<double>(b);
        ++n1;
      } else if (t >= run_start + 3 * span / 4 && t <= last_submit) {
        q4 += static_cast<double>(b);
        ++n4;
      }
    }
    if (n1 > 0 && n4 > 0) {
      q1 /= n1;
      q4 /= n4;
      out->backlog_grew = q4 > 2.0 * q1 + 32.0;
    }
  }
  return Status::OK();
}

}  // namespace perfbench
