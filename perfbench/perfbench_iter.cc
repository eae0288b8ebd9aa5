// perfbench_iter — one iteration of one BlockOptR benchmark workload.
//
// Makes the public calls `blockoptr run` makes (tools/blockoptr_cli.cc) for
// one of four workloads, checks every output, and prints one JSON object on
// stdout. perfbench/run.py starts one process per iteration, so every
// iteration begins with empty process-wide interners, as a CLI run does,
// and turns the iterations into the benchmark's metrics.
//
//   perfbench_iter --workload=NAME --seed=N --out=DIR [--trace]
//                  [--sim-threads=K]
//
// Without --trace only the phase clocks run (setup, sim, analyze, export,
// whatif, total). With --trace the binary also records a span around every
// public call into a layer (name, start, end, parent, heap allocations,
// process CPU time), and on whatif-drm it replays each what-if re-run
// serially under a root span of its own, outside the timed workload.
// After the timed workload every iteration also times a fixed host probe
// (host_probe.cc) that run.py uses to separate host speed from program speed.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "host_probe.h"
#include "blockopt/apply/optimizer.h"
#include "blockopt/eventlog/event_log.h"
#include "blockopt/eventlog/xes_export.h"
#include "blockopt/log/blockchain_log.h"
#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/recommend/evidence.h"
#include "blockopt/recommend/recommender.h"
#include "blockopt/stream/export.h"
#include "common/interner.h"
#include "common/json.h"
#include "driver/channel_run.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "telemetry/bottleneck.h"
#include "telemetry/export.h"
#include "workload/synthetic.h"
#include "workload/usecase.h"

namespace blockoptr {
namespace {

// Run lengths, rescaled from the paper's 100k-transaction rounds so that a
// benchmark run holds enough iterations for a steady median on a 4-core
// host (see perfbench/NOTES.md).
constexpr int kBatchTxs = 25000;
constexpr int kLiveTxs = 25000;
constexpr int kShardedTxs = 50000;
constexpr int kWhatIfTxs = 10000;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// Tracing: spans around the public calls, kept in memory, printed at exit.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  int parent;  // index into the span list; -1 for a root
  double start_s;
  double end_s;
  uint64_t allocs;
  double cpu_s;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) { spans_.reserve(256); }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Records one span for its scope; does nothing when tracing is off.
  class Span {
   public:
    Span(Tracer& tracer, const char* name)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

 private:
  size_t Open(const char* name) {
    const size_t index = spans_.size();
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    spans_.push_back(SpanRecord{name, parent, 0, 0, 0, 0});
    stack_.push_back(index);
    SpanRecord& span = spans_.back();
    span.cpu_s = ProcessCpuSeconds();
    span.allocs = AllocationCount();
    span.start_s = std::chrono::duration<double>(Clock::now() - origin_)
                       .count();
    return index;
  }

  void Close(size_t index) {
    const double end =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    SpanRecord& span = spans_[index];
    span.allocs = AllocationCount() - span.allocs;
    span.cpu_s = ProcessCpuSeconds() - span.cpu_s;
    span.end_s = end;
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<size_t> stack_;
};

/// Adds the wall time of its scope to one end-to-end phase total.
class PhaseClock {
 public:
  explicit PhaseClock(double& total) : total_(total) {}
  ~PhaseClock() { total_ += SecondsSince(start_); }
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

 private:
  double& total_;
  Clock::time_point start_ = Clock::now();
};

struct Phases {
  double setup_s = 0;
  double sim_s = 0;
  double analyze_s = 0;
  double export_s = 0;
  double whatif_s = 0;
  double total_s = 0;
};

// ---------------------------------------------------------------------------
// Output checks. Each simulated run, analysis and export is one op; it fails
// when its call returns an error or its output check fails.
// ---------------------------------------------------------------------------

class Ops {
 public:
  bool Add(const std::string& name, bool ok, const std::string& why = "") {
    JsonValue::Object op;
    op["op"] = name;
    op["ok"] = ok;
    if (!ok) op["why"] = why;
    ops_.push_back(std::move(op));
    return ok;
  }
  JsonValue ToJson() const { return JsonValue(ops_); }

 private:
  JsonValue::Array ops_;
};

/// Transaction accounting of one run: every scheduled request was either
/// committed or early-aborted, and every commit has exactly one outcome.
std::string AccountingError(const PerformanceReport& r, size_t scheduled) {
  const uint64_t outcomes = r.successful() + r.mvcc_failures() +
                            r.phantom_failures() + r.endorsement_failures();
  if (r.total_committed() + r.early_aborts() != scheduled) {
    return "committed " + std::to_string(r.total_committed()) +
           " + early aborts " + std::to_string(r.early_aborts()) +
           " != scheduled " + std::to_string(scheduled);
  }
  if (outcomes != r.total_committed()) {
    return "successful+mvcc+phantom+endorsement " + std::to_string(outcomes) +
           " != committed " + std::to_string(r.total_committed());
  }
  return "";
}

JsonValue ReportCounts(const PerformanceReport& r) {
  JsonValue::Object o;
  o["committed"] = r.total_committed();
  o["successful"] = r.successful();
  o["mvcc"] = r.mvcc_failures();
  o["phantom"] = r.phantom_failures();
  o["endorsement"] = r.endorsement_failures();
  o["early_abort"] = r.early_aborts();
  return o;
}

/// Every field of a report a run determines, floats at full precision.
/// Two runs of one seed must produce identical fingerprints, and a sharded
/// run must produce the same one for any sim_threads.
JsonValue ReportFingerprint(const PerformanceReport& report) {
  PerformanceReport r = report;  // LatencyPercentile sorts lazily
  JsonValue::Object o = ReportCounts(r).as_object();
  o["throughput"] = r.Throughput();
  o["avg_latency"] = r.AvgLatency();
  o["max_latency"] = r.MaxLatency();
  o["p50"] = r.LatencyPercentile(50);
  o["p99"] = r.LatencyPercentile(99);
  o["duration"] = r.duration();
  JsonValue::Array tails;
  for (const auto& t : r.channel_tails()) {
    tails.push_back(JsonValue::Array{t.p50_s, t.p95_s, t.p99_s, t.max_s,
                                     t.successful});
  }
  o["channel_tails"] = std::move(tails);
  return o;
}

JsonValue RecommendationTypes(const std::vector<Recommendation>& recs) {
  JsonValue::Array types;
  for (const auto& rec : recs) {
    types.push_back(std::string(RecommendationTypeName(rec.type)));
  }
  return types;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

size_t CountOccurrences(std::string_view text, std::string_view needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string_view::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The `blockoptr run` network for a seed: the paper's Table 2 defaults.
NetworkConfig CliNetwork(uint64_t seed) {
  NetworkConfig net = NetworkConfig::Defaults();
  net.num_orgs = 2;
  net.seed = seed + 41;
  net.endorser_dist_skew = 0;
  net.block_cutting.max_tx_count = 300;
  net.block_cutting.timeout_s = 1.0;
  net.endorsement_policy = EndorsementPolicy::Preset(3, net.num_orgs);
  return net;
}

ExperimentConfig SyntheticExperiment(SyntheticWorkloadType type, int txs,
                                     double key_skew, uint64_t seed) {
  SyntheticConfig wl;
  wl.type = type;
  wl.num_txs = txs;
  wl.send_rate = 300;
  wl.key_skew = key_skew;
  wl.num_orgs = 2;
  wl.seed = seed;
  return MakeSyntheticExperiment(wl, CliNetwork(seed));
}

ExperimentConfig DrmExperiment(int txs, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.network = CliNetwork(seed);
  cfg.chaincodes = {"drm"};
  for (auto& [k, v] : DrmSeedState()) {
    cfg.seeds.push_back(SeedEntry{"drm", k, v});
  }
  UseCaseConfig uc;
  uc.num_txs = txs;
  uc.send_rate = 300;
  uc.seed = seed;
  cfg.schedule = GenerateDrmWorkload(uc);
  return cfg;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  std::string out_dir;
  bool trace = false;
  // sharded-4ch advances its channels on one thread: at two threads the
  // lockstep barrier splits iteration times into two groups (NOTES.md), too
  // unsteady to gate on. run.py runs two threads once per invocation, as the
  // untimed equivalence check.
  int sim_threads = 1;
};

/// State of one iteration: the clocks, the spans, the checks, and the
/// numbers it reports.
struct Iteration {
  explicit Iteration(const Args& a) : args(a), tracer(a.trace) {}

  const Args& args;
  Tracer tracer;
  Phases phases;
  Ops ops;
  JsonValue::Object counts;
  JsonValue::Object fingerprint;
  PerformanceReport report;  // of the timed base run, fingerprinted later
  /// Output checks that read artifacts back; they run after the timed
  /// workload so they move neither its clocks nor its peak memory.
  std::vector<std::function<void()>> checks;
  /// whatif-drm's inputs to EvaluateWhatIf, kept for the traced replay.
  ExperimentConfig whatif_base;
  std::vector<Recommendation> whatif_recs;
  uint64_t bytes = 0;  // artifact bytes written (export.bytes)

  std::string Path(const char* file) const {
    return (std::filesystem::path(args.out_dir) / file).string();
  }
};

/// Writes one artifact through `write`, timed as an export, and queues
/// `check` to run on its contents after the workload.
void Export(Iteration& it, const char* span, const char* file,
            const std::function<bool(std::ostream&)>& write,
            std::function<bool(const std::string&)> check,
            std::string why) {
  const std::string path = it.Path(file);
  bool ok = false;
  {
    PhaseClock clock(it.phases.export_s);
    Tracer::Span s(it.tracer, span);
    std::ofstream out(path, std::ios::binary);
    ok = out && write(out);
    out.close();
    ok = ok && !out.fail();
  }
  if (!ok) {
    it.ops.Add(span, false, "cannot write " + path);
    return;
  }
  it.checks.push_back([&it, span, path, check = std::move(check),
                       why = std::move(why)] {
    const std::string content = ReadFile(path);
    it.bytes += content.size();
    it.ops.Add(span, check(content), why);
  });
}

/// extract -> metrics -> recommend over one channel's ledger.
struct Analysis {
  BlockchainLog log;
  LogMetrics metrics;
  std::vector<Recommendation> recs;
};

Status RunSingleChannel(Iteration& it, const ExperimentConfig& cfg,
                        ExperimentOutput& out) {
  std::unique_ptr<ChannelRun> run;
  {
    PhaseClock clock(it.phases.setup_s);
    Tracer::Span s(it.tracer, "driver.create");
    auto created = ChannelRun::Create(cfg);
    if (!created.ok()) return created.status();
    run = std::move(*created);
  }
  {
    PhaseClock clock(it.phases.sim_s);
    {
      Tracer::Span s(it.tracer, "sim.loop");
      BLOCKOPTR_RETURN_NOT_OK(run->RunToCompletion());
    }
    Tracer::Span s(it.tracer, "driver.finish");
    out = run->Finish();
  }
  Tracer::Span s(it.tracer, "driver.teardown");
  run.reset();
  return Status::OK();
}

/// The run op of a run whose call succeeded: the transaction accounting.
void RecordRun(Iteration& it, const ExperimentOutput& out, size_t scheduled) {
  const PerformanceReport& r = out.report;
  const std::string error = AccountingError(r, scheduled);
  it.ops.Add("run", error.empty(), error);
  it.report = r;
  it.counts["sim.events"] = out.events_processed;
  it.counts["sim.queue_peak"] = static_cast<uint64_t>(out.queue_peak);
  it.counts["fabric.valid_ratio"] = r.SuccessRate();
  it.counts["fabric.mvcc_aborts"] = r.mvcc_failures();
  it.counts["fabric.phantom_aborts"] = r.phantom_failures();
  it.counts["fabric.endorse_failures"] = r.endorsement_failures();
}

Analysis Analyze(Iteration& it, const Ledger& ledger) {
  PhaseClock clock(it.phases.analyze_s);
  Analysis a;
  {
    Tracer::Span s(it.tracer, "log.extract");
    a.log = ExtractBlockchainLog(ledger);
  }
  {
    Tracer::Span s(it.tracer, "metrics.compute");
    a.metrics = ComputeMetrics(a.log, MetricsOptions{});
  }
  Tracer::Span s(it.tracer, "recommend");
  a.recs = Recommend(a.metrics, RecommenderOptions{});
  return a;
}

/// The analyze op: the log holds one row per committed transaction.
void RecordAnalysis(Iteration& it, size_t rows, uint64_t committed,
                    const std::vector<Recommendation>& recs) {
  it.counts["log.rows"] = static_cast<uint64_t>(rows);
  it.counts["recommend.count"] = static_cast<uint64_t>(recs.size());
  it.fingerprint["log_rows"] = static_cast<uint64_t>(rows);
  it.fingerprint["recommendations"] = RecommendationTypes(recs);
  it.ops.Add("analyze", rows == committed,
             "log rows " + std::to_string(rows) + " != committed " +
                 std::to_string(committed));
}

/// The log CSV, JSON and XES exports (`--out-log --out-json --out-xes`).
void ExportLog(Iteration& it, const BlockchainLog& log) {
  const size_t rows = log.size();
  Export(
      it, "export.log_csv", "log.csv",
      [&](std::ostream& out) {
        WriteLogCsv(log, out);
        return true;
      },
      [rows](const std::string& csv) {
        return CountOccurrences(csv, "\n") == rows + 1;
      },
      "CSV line count is not rows + header");
  Export(
      it, "export.log_json", "log.json",
      [&](std::ostream& out) {
        out << LogToJson(log).DumpPretty();
        return true;
      },
      [rows](const std::string& json) {
        auto parsed = JsonValue::Parse(json);
        if (!parsed.ok()) return false;
        auto back = ParseLogJson(*parsed);
        return back.ok() && back->size() == rows;
      },
      "JSON log does not parse back to the same number of rows");
  auto cases = std::make_shared<size_t>(0);
  Export(
      it, "export.xes", "log.xes",
      [&](std::ostream& out) {
        auto events = EventLog::FromBlockchainLog(log, EventLogOptions{});
        if (!events.ok()) return false;
        *cases = events->num_cases();
        WriteXes(*events, out);
        return true;
      },
      [cases](const std::string& xes) {
        return CountOccurrences(xes, "<trace>") == *cases &&
               EndsWith(xes, "</log>\n");
      },
      "XES trace count is not the event log's case count");
}

/// The telemetry exports (`--metrics-out --prom-out --report-out`) with the
/// bottleneck attribution and evidence the CLI derives for them.
void ExportTelemetry(Iteration& it, const ExperimentOutput& out,
                     std::vector<Recommendation>& recs) {
  const Telemetry& telemetry = *out.telemetry;
  BottleneckReport bottleneck;
  {
    PhaseClock clock(it.phases.export_s);
    Tracer::Span s(it.tracer, "telemetry.bottleneck");
    bottleneck = ComputeBottleneckReport(telemetry, out.sim_end_time,
                                         &out.fault_windows);
    AttachTelemetryEvidence(recs, bottleneck);
  }
  it.ops.Add("telemetry.bottleneck", !bottleneck.summary.empty(),
             "empty bottleneck verdict");
  Export(
      it, "telemetry.snapshot", "metrics.json",
      [&](std::ostream& o) {
        JsonValue json = TelemetrySnapshotJson(telemetry, &bottleneck);
        json.as_object()["stream"] = StreamStateJson(*out.stream);
        o << json.DumpPretty();
        return true;
      },
      [](const std::string& text) {
        auto parsed = JsonValue::Parse(text);
        if (!parsed.ok() || !parsed->is_object()) return false;
        for (const char* key :
             {"counters", "timeseries", "bottleneck", "txtrace", "stream"}) {
          if ((*parsed)[key].is_null()) return false;
        }
        return true;
      },
      "metrics JSON misses a section");
  Export(
      it, "telemetry.prom", "metrics.prom",
      [&](std::ostream& o) {
        WritePrometheusText(telemetry, o);
        AppendStreamPrometheus(*out.stream, o);
        return true;
      },
      [](const std::string& prom) {
        return prom.rfind("# HELP blockoptr_", 0) == 0 &&
               prom.find("blockoptr_txtrace_") != std::string::npos &&
               EndsWith(prom, "\n");
      },
      "Prometheus text lacks the blockoptr_ and txtrace samples");
  const std::string transactions = std::to_string(
      out.report.total_committed() + out.report.early_aborts());
  Export(
      it, "telemetry.html", "report.html",
      [&](std::ostream& o) {
        HtmlSummaryRows rows;
        rows.emplace_back("transactions", transactions);
        WriteHtmlReport(o, "BlockOptR run report", rows, telemetry,
                        bottleneck, StreamHtmlSection(*out.stream));
        return true;
      },
      [](const std::string& html) {
        return html.rfind("<!DOCTYPE html>", 0) == 0 &&
               EndsWith(html, "</html>\n") &&
               html.find("<script") == std::string::npos;
      },
      "HTML report is not a complete self-contained page");
}

/// batch-uniform and live-hotkey: one channel, post-mortem analysis, and
/// the workload's exports.
void SingleChannelWorkload(Iteration& it, bool live) {
  ExperimentConfig cfg;
  {
    PhaseClock clock(it.phases.setup_s);
    Tracer::Span s(it.tracer, "workload.generate");
    if (live) {
      cfg = SyntheticExperiment(SyntheticWorkloadType::kUpdateHeavy, kLiveTxs,
                                2.0, it.args.seed);
      // What --stream-analysis --txtrace --metrics-out --prom-out
      // --report-out turn on.
      cfg.enable_telemetry = true;
      cfg.telemetry_options.txtrace.enabled = true;
      cfg.stream.enabled = true;
    } else {
      cfg = SyntheticExperiment(SyntheticWorkloadType::kUniform, kBatchTxs,
                                1.0, it.args.seed);
    }
  }
  ExperimentOutput out;
  const Status st = RunSingleChannel(it, cfg, out);
  if (!st.ok()) {
    it.ops.Add("run", false, st.ToString());
    return;
  }
  RecordRun(it, out, cfg.schedule.size());

  Analysis a = Analyze(it, out.ledger);
  RecordAnalysis(it, a.log.size(), out.report.total_committed(), a.recs);
  if (live) {
    it.counts["stream.evaluations"] = out.stream->evaluations();
    it.counts["stream.pane_merges"] = out.stream->pane_merges();
    it.counts["txtrace.events_appended"] =
        out.telemetry->txtrace()->events_appended();
    it.counts["sampler.ticks"] = out.telemetry->sampler()->ticks();
    ExportTelemetry(it, out, a.recs);
  } else {
    ExportLog(it, a.log);
  }
}

/// sharded-4ch: RunExperiment with channels > 1 on `--sim-threads`, serial
/// per-channel post-mortem, AggregateMetrics, Recommend.
void ShardedWorkload(Iteration& it) {
  ExperimentConfig cfg;
  {
    PhaseClock clock(it.phases.setup_s);
    Tracer::Span s(it.tracer, "workload.generate");
    cfg = SyntheticExperiment(SyntheticWorkloadType::kUniform, kShardedTxs,
                              1.0, it.args.seed);
    cfg.channels = 4;
    cfg.sim_threads = it.args.sim_threads;
  }
  Result<ExperimentOutput> out = Status::Internal("not run");
  {
    PhaseClock clock(it.phases.sim_s);
    Tracer::Span s(it.tracer, "shard.run");
    out = RunExperiment(cfg);
  }
  if (!out.ok()) {
    it.ops.Add("run", false, out.status().ToString());
    return;
  }
  RecordRun(it, *out, cfg.schedule.size());

  std::vector<Recommendation> recs;
  size_t rows = 0;
  {
    PhaseClock clock(it.phases.analyze_s);
    std::vector<LogMetrics> per_channel;
    for (const auto& ch : out->channels) {
      BlockchainLog log;
      {
        Tracer::Span s(it.tracer, "log.extract");
        log = ExtractBlockchainLog(ch.ledger);
      }
      rows += log.size();
      Tracer::Span s(it.tracer, "metrics.compute");
      per_channel.push_back(ComputeMetrics(log, MetricsOptions{}));
    }
    LogMetrics metrics;
    {
      Tracer::Span s(it.tracer, "metrics.aggregate");
      metrics = AggregateMetrics(per_channel);
    }
    Tracer::Span s(it.tracer, "recommend");
    recs = Recommend(metrics, RecommenderOptions{});
  }
  RecordAnalysis(it, rows, out->report.total_committed(), recs);
}

/// whatif-drm: base run, analysis, then EvaluateWhatIf with jobs=2 (each
/// recommendation alone plus all combined).
void WhatIfWorkload(Iteration& it) {
  ExperimentConfig& cfg = it.whatif_base;
  {
    PhaseClock clock(it.phases.setup_s);
    Tracer::Span s(it.tracer, "workload.generate");
    cfg = DrmExperiment(kWhatIfTxs, it.args.seed);
  }
  ExperimentOutput out;
  const Status st = RunSingleChannel(it, cfg, out);
  if (!st.ok()) {
    it.ops.Add("run", false, st.ToString());
    return;
  }
  RecordRun(it, out, cfg.schedule.size());
  Analysis a = Analyze(it, out.ledger);
  RecordAnalysis(it, a.log.size(), out.report.total_committed(), a.recs);
  it.whatif_recs = a.recs;

  WhatIfOptions options;
  options.jobs = 2;
  Result<WhatIfReport> whatif = Status::Internal("not run");
  {
    PhaseClock clock(it.phases.whatif_s);
    Tracer::Span s(it.tracer, "apply.whatif");
    whatif = EvaluateWhatIf(cfg, a.recs, options);
  }
  if (!whatif.ok()) {
    it.ops.Add("whatif", false, whatif.status().ToString());
    return;
  }
  it.counts["apply.reruns"] =
      static_cast<uint64_t>(whatif->individual.size() + 1);
  it.ops.Add("whatif", whatif->individual.size() == a.recs.size(),
             "what-if entries do not match the recommendations");
  std::vector<const PerformanceReport*> reports;
  for (const auto& entry : whatif->individual) reports.push_back(&entry.report);
  reports.push_back(&whatif->combined);
  JsonValue::Array rerun_counts;
  for (const PerformanceReport* r : reports) {
    const std::string error = AccountingError(*r, cfg.schedule.size());
    it.ops.Add("whatif.rerun", error.empty(), error);
    rerun_counts.push_back(ReportCounts(*r));
  }
  it.fingerprint["whatif"] = std::move(rerun_counts);
}

/// Traced whatif-drm only: every what-if re-run again, serially, each in
/// its own spans, under a root span outside the timed workload. Each
/// re-run must reproduce the parallel EvaluateWhatIf report exactly.
void ReplayWhatIf(Iteration& it) {
  std::vector<std::vector<Recommendation>> subsets;
  for (const auto& rec : it.whatif_recs) subsets.push_back({rec});
  subsets.push_back(it.whatif_recs);
  const JsonValue& expected = it.fingerprint["whatif"];

  Tracer::Span root(it.tracer, "apply.replay");
  for (size_t i = 0; i < subsets.size(); ++i) {
    Result<ExperimentConfig> variant = Status::Internal("not run");
    {
      Tracer::Span s(it.tracer, "apply.optimize");
      variant = ApplyOptimizations(it.whatif_base, subsets[i]);
    }
    Result<ExperimentOutput> rerun = Status::Internal("not run");
    if (variant.ok()) {
      Tracer::Span s(it.tracer, "apply.rerun");
      rerun = RunExperiment(*variant);
    }
    const bool same = rerun.ok() && expected.is_array() &&
                      i < expected.as_array().size() &&
                      ReportCounts(rerun->report).Dump() ==
                          expected.as_array()[i].Dump();
    it.ops.Add("replay", same,
               "serial re-run " + std::to_string(i) +
                   " differs from the parallel what-if report");
  }
}

JsonValue SpansJson(const Tracer& tracer) {
  JsonValue::Array spans;
  for (const SpanRecord& s : tracer.spans()) {
    spans.push_back(JsonValue::Array{s.name, s.parent, s.start_s, s.end_s,
                                     s.allocs, s.cpu_s});
  }
  return spans;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::char_traits<char>::length(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args.workload = v;
    } else if (const char* v = value("--seed=")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--out=")) {
      args.out_dir = v;
    } else if (const char* v = value("--sim-threads=")) {
      args.sim_threads = std::atoi(v);
    } else if (arg == "--trace") {
      args.trace = true;
    } else {
      return false;
    }
  }
  const bool known = args.workload == "batch-uniform" ||
                     args.workload == "live-hotkey" ||
                     args.workload == "sharded-4ch" ||
                     args.workload == "whatif-drm";
  return known && !args.out_dir.empty() && args.sim_threads >= 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_iter --workload=NAME --seed=N --out=DIR "
                 "[--trace] [--sim-threads=K]\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  Iteration it(args);
  const size_t keys_before = GlobalKeyInterner().size();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  {
    Tracer::Span root(it.tracer, "run");
    if (args.workload == "batch-uniform") {
      SingleChannelWorkload(it, /*live=*/false);
    } else if (args.workload == "live-hotkey") {
      SingleChannelWorkload(it, /*live=*/true);
    } else if (args.workload == "sharded-4ch") {
      ShardedWorkload(it);
    } else {
      WhatIfWorkload(it);
    }
  }
  it.phases.total_s = SecondsSince(start);
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  it.counts["interner.keys_added"] =
      static_cast<uint64_t>(GlobalKeyInterner().size() - keys_before);
  const double probe_s = HostProbeSeconds();

  it.fingerprint["report"] = ReportFingerprint(it.report);
  for (const auto& check : it.checks) check();
  if (!it.checks.empty()) it.counts["export.bytes"] = it.bytes;
  if (args.trace && args.workload == "whatif-drm") ReplayWhatIf(it);

  JsonValue::Object phases;
  phases["setup_s"] = it.phases.setup_s;
  phases["sim_s"] = it.phases.sim_s;
  phases["analyze_s"] = it.phases.analyze_s;
  phases["export_s"] = it.phases.export_s;
  phases["whatif_s"] = it.phases.whatif_s;
  phases["total_s"] = it.phases.total_s;
  phases["cpu_s"] = cpu_s;
  phases["peak_rss_mb"] = peak_rss_mb;
  phases["probe_s"] = probe_s;

  JsonValue::Object result;
  result["workload"] = args.workload;
  result["seed"] = args.seed;
  result["phases"] = std::move(phases);
  result["committed"] = it.report.total_committed();
  result["counts"] = std::move(it.counts);
  result["fingerprint"] = std::move(it.fingerprint);
  result["ops"] = it.ops.ToJson();
  if (args.trace) result["spans"] = SpansJson(it.tracer);
  std::printf("%s\n", JsonValue(std::move(result)).Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) { return blockoptr::Main(argc, argv); }
