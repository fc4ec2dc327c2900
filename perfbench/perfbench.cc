// Measurement core of the end-to-end benchmark (see README.md).
//
// Runs ONE workload as a closed loop (one client, next operation only
// after the previous one returned), drives the system only through its
// public API, times every layer from outside by wrapping the calls in its
// own spans, checks the outputs, and prints one JSON object of raw samples
// and counters on stdout. run.py builds this program, turns the samples
// into the reported metrics and prints the result line.
//
//   csm_perfbench --workload net_adhoc --seed 1 --seconds 10 --trace 0 \
//                 --root <source tree> --tmp <scratch directory>
//
// Exit codes: 0 = measured and every check passed, 1 = a check failed
// (the JSON is still printed, with the failures listed), 2 = usage error
// or a set-up step failed (nothing printed on stdout).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/timer.h"
#include "data/netlog.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "exec/engine.h"
#include "exec/exec_context.h"
#include "exec/factory.h"
#include "exec/session.h"
#include "exec/sort_scan.h"
#include "model/schema.h"
#include "obs/trace.h"
#include "opt/footprint.h"
#include "opt/lowering.h"
#include "storage/external_sorter.h"
#include "storage/record_batch.h"
#include "storage/record_cursor.h"
#include "storage/table_io.h"
#include "storage/temp_file.h"
#include "testing/differential.h"
#include "workflow/fuse.h"
#include "workflow/workflow.h"

namespace csm {
namespace {

// --- workload shape (README.md "Workloads") --------------------------------

constexpr size_t kNetRows = 1000000;       // net_adhoc / dashboard_append
                                           // base table
constexpr size_t kCubeRows = 400000;       // cube_q1_hash
constexpr size_t kDeltaRows = kNetRows / 100;   // the 1% appended batch
constexpr size_t kOutOfCoreBudget = 16ull << 20;  // traced external-sort probe
// Set-up is repeated and run.py reports the median: 5 times for the
// engine workloads (0.1-0.5 s each), once per episode (at least
// kMinEpisodes) for the dashboard (~3 s each).
constexpr int kSetupReps = 5;
constexpr int kMinEpisodes = 3;
constexpr int kEpisodeCycles = 8;  // append + read cycles per dashboard episode
constexpr size_t kMinOps = 11;    // >= 11 samples so a tail with 10 beyond exists
constexpr size_t kMinTracedOps = 6;  // per half of the traced run
constexpr int kStorageAppends = 40;  // timed AppendBatch ops of the engine
                                     // workloads, after one untimed one
constexpr int kLayerReps = 3;     // repetitions of the traced per-layer probes
constexpr int kMaxThreads = 4;   // parallel_threads = min(4, nproc)
constexpr double kMinCoverage = 0.95;  // the span-phase rule

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string tmp;
};

// --- small helpers ----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int ParallelThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(kMaxThreads, hw == 0 ? 1 : static_cast<int>(hw));
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Resident-set high-water mark in MiB. ResetPeakRss() restarts it (Linux
// clear_refs "5"), so the reported peak covers the measured workload and
// not the data generator or the reference evaluator that ran before it;
// where the reset is unavailable this is the process-lifetime ru_maxrss.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Order-independent digest of every output table: a wrapping sum of
// per-row hashes (keys + the value's bit pattern), combined with the table
// names and row counts. Equal digests across repeated runs of the same
// query show the engine returned the verified answer again.
uint64_t Digest(const EvalOutput& output) {
  uint64_t h = Mix64(0xd16e57ull);
  for (const auto& [name, table] : output.tables) {
    uint64_t rows = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      uint64_t row = Mix64(0x5eedull);
      const Value* key = table.key_row(r);
      for (int d = 0; d < table.num_dims(); ++d) {
        row = HashCombine(row, key[d]);
      }
      uint64_t bits = 0;
      const double v = table.value(r);
      std::memcpy(&bits, &v, sizeof(bits));
      rows += HashCombine(row, bits);
    }
    h = HashCombine(h, std::hash<std::string>{}(name));
    h = HashCombine(h, table.num_rows());
    h = HashCombine(h, rows);
  }
  return h;
}

// Compares every table of `output` with the expected table of the same
// name; returns the first difference as text.
std::optional<std::string> DiffOutputs(
    const EvalOutput& output,
    const std::map<std::string, MeasureTable>& expected) {
  if (output.tables.empty() || output.tables.size() != expected.size()) {
    return "emitted " + std::to_string(output.tables.size()) +
           " tables, expected " + std::to_string(expected.size());
  }
  for (const auto& [name, table] : output.tables) {
    auto it = expected.find(name);
    if (it == expected.end()) return "no reference for " + name;
    if (auto diff = testing_util::DiffTables(table, it->second)) {
      return name + ": " + *diff;
    }
  }
  return std::nullopt;
}

// Keeps only the tables a run emits (drops the hidden intermediates), so
// the reference kept across the timed loop costs little memory.
std::map<std::string, MeasureTable> OutputReference(
    std::map<std::string, MeasureTable> all, const Workflow& workflow) {
  std::map<std::string, MeasureTable> out;
  for (auto& [name, table] : all) {
    auto def = workflow.Find(name);
    if (def.ok() && (*def)->is_output) out.emplace(name, std::move(table));
  }
  return out;
}

// --- span analysis ------------------------------------------------------------

// A snapshot of one op's span tree with the derived quantities the
// per-layer table needs: self time (duration minus the union of the
// children's intervals) and coverage of a span by a set of descendants.
class SpanTree {
 public:
  explicit SpanTree(const Tracer& tracer) {
    spans_.reserve(tracer.num_spans());
    for (size_t i = 0; i < tracer.num_spans(); ++i) {
      spans_.push_back(tracer.GetSpan(static_cast<SpanId>(i)));
    }
  }

  const SpanData& span(SpanId id) const { return spans_[id]; }

  // Seconds of `id`'s interval covered by its direct children.
  double ChildCovered(SpanId id) const {
    std::vector<std::pair<double, double>> iv;
    for (SpanId c : spans_[id].children) iv.push_back(Interval(c));
    return UnionWithin(id, std::move(iv));
  }

  double Self(SpanId id) const {
    return std::max(0.0, spans_[id].duration_seconds - ChildCovered(id));
  }

  // Sum of self time of every span named `name` in `root`'s subtree.
  double SelfOf(SpanId root, std::string_view name) const {
    double total = 0;
    Walk(root, [&](SpanId id) {
      if (spans_[id].name == name) total += Self(id);
    });
    return total;
  }

  // Share of `root`'s interval covered by the spans of its subtree whose
  // names are in `names` (outermost ones; nested ones add nothing).
  double CoverageBy(SpanId root, const std::set<std::string>& names) const {
    std::vector<std::pair<double, double>> iv;
    Walk(root, [&](SpanId id) {
      if (id != root && names.count(spans_[id].name) > 0) {
        iv.push_back(Interval(id));
      }
    });
    const double d = spans_[root].duration_seconds;
    return d > 0 ? UnionWithin(root, std::move(iv)) / d : 1.0;
  }

  // The first span named `name` in `root`'s subtree (pre-order), or kNoSpan.
  SpanId Find(SpanId root, std::string_view name) const {
    SpanId found = kNoSpan;
    Walk(root, [&](SpanId id) {
      if (found == kNoSpan && spans_[id].name == name) found = id;
    });
    return found;
  }

 private:
  std::pair<double, double> Interval(SpanId id) const {
    return {spans_[id].start_seconds,
            spans_[id].start_seconds + spans_[id].duration_seconds};
  }

  double UnionWithin(SpanId id,
                     std::vector<std::pair<double, double>> iv) const {
    const auto [lo, hi] = Interval(id);
    std::sort(iv.begin(), iv.end());
    double covered = 0, end = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, end);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        end = b;
      }
    }
    return covered;
  }

  void Walk(SpanId root, const std::function<void(SpanId)>& fn) const {
    fn(root);
    for (SpanId c : spans_[root].children) Walk(c, fn);
  }

  std::vector<SpanData> spans_;
};

// The engine phases of the span-phase rule: under an engine's root span
// these should cover >= 95% of it (otherwise time hides outside any
// phase).
const std::set<std::string> kEnginePhases = {
    "plan", "sort", "scan", "partition", "combine", "pass", "materialize"};
// The per-entry delta spans under a session append. Their coverage is
// reported (delta.apply_coverage_min), not checked: the table append
// inside session.append has no span of its own, and on the first append
// after a load, whose capacity growth copies the whole table, it takes
// about 5% of the op.
const std::set<std::string> kAppendPhases = {"delta.apply"};

// --- result collection --------------------------------------------------------

// Raw measurements of one run, printed as JSON for run.py.
struct Report {
  // environment and plan record
  std::map<std::string, std::string> info;
  double est_entries = 0;  // the optimizer's footprint estimate
  // samples (seconds)
  std::vector<double> setup_s, query_s, append_s;
  double rows_read = 0;  // fact rows the timed reads processed in total
  double peak_state_entries = 0;
  double peak_rss_mb = 0;
  // correctness
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  // traced run: per-layer metrics and span-rule coverage
  std::map<std::string, double> layers;
  std::vector<double> coverage;

  // Counts one operation; a failed one is also remembered by `what`.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }

  std::string ToJson() const;
};

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(v[i]);
  }
  return out + "]";
}

template <typename Map, typename Fmt>
std::string JsonObject(const Map& m, Fmt fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(k) + ": " + fmt(v);
  }
  return out + "}";
}

std::string Report::ToJson() const {
  std::vector<std::string> fields = {
      "\"info\": " + JsonObject(info, JsonString),
      "\"est_entries\": " + JsonNumber(est_entries),
      "\"setup_s\": " + JsonArray(setup_s),
      "\"query_s\": " + JsonArray(query_s),
      "\"append_s\": " + JsonArray(append_s),
      "\"rows_read\": " + JsonNumber(rows_read),
      "\"peak_state_entries\": " + JsonNumber(peak_state_entries),
      "\"peak_rss_mb\": " + JsonNumber(peak_rss_mb),
      "\"attempted\": " + std::to_string(attempted),
      "\"failed\": " + std::to_string(failed),
      "\"layers\": " + JsonObject(layers, JsonNumber),
      "\"coverage\": " + JsonArray(coverage),
  };
  std::string errs = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) errs += ", ";
    errs += JsonString(errors[i]);
  }
  fields.push_back("\"errors\": " + errs + "]");
  std::string out = "{\n";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += "  " + fields[i] + (i + 1 < fields.size() ? ",\n" : "\n");
  }
  return out + "}";
}

// Per-op layer samples of the traced loop, reduced to medians at the end.
class LayerSamples {
 public:
  void Add(const std::string& name, double v) { samples_[name].push_back(v); }
  void MedianInto(std::map<std::string, double>* out) const {
    for (const auto& [name, v] : samples_) (*out)[name] = Median(v);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// --- shared workload machinery ------------------------------------------------

Status Fatal(const std::string& what, const Status& status) {
  return Status(status.code(), what + ": " + status.ToString());
}

// Side operations (the repeated set-ups, the storage appends) spread
// evenly over a timed window between the loop's own operations. The host's
// speed drifts over seconds, so ops run in one burst would all sample one
// moment of it; spread out, they sample the same stretch as the reads.
class Interleave {
 public:
  Interleave(std::vector<std::function<void()>> tasks, double seconds)
      : tasks_(std::move(tasks)), seconds_(seconds) {}

  // Runs every task whose slot (the middle of its 1/n of the window) has
  // passed.
  void Poll() {
    const double due = clock_.Seconds() / seconds_ * tasks_.size();
    while (next_ < tasks_.size() && next_ + 0.5 <= due) tasks_[next_++]();
  }

  // Runs the tasks the window did not reach.
  void Finish() {
    while (next_ < tasks_.size()) tasks_[next_++]();
  }

 private:
  std::vector<std::function<void()>> tasks_;
  double seconds_;
  size_t next_ = 0;
  Timer clock_;
};

// Everything one workload run shares: options, scratch space, engine knobs.
struct Bench {
  Options opt;
  TempDir tmp;
  EngineOptions engine;
  Report report;
  LayerSamples layer_samples;
  Timer clock;  // since start, for the progress log

  // Progress on stderr: which phase ended, and when.
  void Phase(const char* name) const {
    std::fprintf(stderr, "[%7.2f s] %s\n", clock.Seconds(), name);
  }

  ExecContext Context(Tracer* tracer = nullptr, SpanId parent = kNoSpan) {
    ExecContext ctx;
    ctx.options = engine;
    ctx.tracer = tracer;
    ctx.trace_parent = parent;
    return ctx;
  }

  // Calls `op` back to back until `seconds` have passed and at least
  // `min_ops` calls were made. `op` returns false to stop early (failure).
  // `side` ops, when given, run between the calls as their slots come up.
  void Loop(double seconds, size_t min_ops, const std::function<bool()>& op,
            Interleave* side = nullptr) {
    Timer clock;
    for (size_t n = 0; n < min_ops || clock.Seconds() < seconds; ++n) {
      if (!op()) return;
      if (side != nullptr) side->Poll();
    }
  }

  // Records the span-rule coverage of one traced op: the op span's own
  // children (the system's spans under the benchmark's wrapper) and, when
  // `engine_root` names a system span, the phases under it.
  void CheckCoverage(const SpanTree& tree, SpanId op, SpanId engine_root,
                     const std::set<std::string>& phases) {
    const double d = tree.span(op).duration_seconds;
    report.coverage.push_back(d > 0 ? tree.ChildCovered(op) / d : 1.0);
    if (engine_root != kNoSpan) {
      report.coverage.push_back(tree.CoverageBy(engine_root, phases));
    }
  }

  // Engine-phase self times and volume counters of one traced engine op.
  void AddExecLayers(const Tracer& tracer, const SpanTree& tree,
                     SpanId root) {
    layer_samples.Add("exec.plan_self_s", tree.SelfOf(root, "plan"));
    layer_samples.Add("exec.sort_self_s", tree.SelfOf(root, "sort"));
    layer_samples.Add("exec.scan_self_s", tree.SelfOf(root, "scan"));
    layer_samples.Add("exec.combine_self_s", tree.SelfOf(root, "combine"));
    for (const char* c : {"rows_scanned", "batches", "batches_skipped",
                          "morsels", "steals", "pool_threads"}) {
      layer_samples.Add(std::string("exec.") + c, tracer.SumCounter(root, c));
    }
    layer_samples.Add("exec.peak_hash_bytes",
                      tracer.MaxGauge(root, "peak_hash_bytes"));
  }

  std::string FactPath() const { return tmp.path() + "/facts.bin"; }
};

// Generated inputs. The i-th appended 1% batch draws from its own seed.
uint64_t DeltaSeed(uint64_t seed, int i) {
  return seed * 1000003ull + 17 + static_cast<uint64_t>(i);
}

FactTable NetRows(const SchemaPtr& schema, uint64_t seed, size_t rows) {
  NetLogOptions o;
  o.rows = rows;
  o.seed = seed;
  return GenerateNetLog(schema, o);
}

FactTable CubeRows(const SchemaPtr& schema, uint64_t seed, size_t rows) {
  SyntheticDataOptions o;
  o.rows = rows;
  o.base_cardinality = 1000;
  o.seed = seed;
  return GenerateSyntheticFacts(schema, o);
}

// Loads the fact file and builds its dictionary encoding: the set-up of
// the in-memory workloads (recorded in setup_s when `setup`), and the
// storage probe of every traced run.
Result<FactTable> LoadFacts(Bench& b, const SchemaPtr& schema, bool setup) {
  Timer t;
  auto loaded = ReadFactTableBinary(schema, b.FactPath());
  if (!loaded.ok()) return Fatal("load", loaded.status());
  const double load_s = t.Seconds();
  t.Reset();
  loaded->EnsureDictEncoding();
  const double dict_s = t.Seconds();
  if (setup) b.report.setup_s.push_back(load_s + dict_s);
  if (b.opt.trace) {
    b.layer_samples.Add("storage.load_s", load_s);
    b.layer_samples.Add("storage.dict_build_s", dict_s);
    t.Reset();
    loaded->ContentHash();  // first call: O(rows), then memoized
    b.layer_samples.Add("storage.content_hash_s", t.Seconds());
  }
  return std::move(*loaded);
}

// The plan record: what LowerToPlan decides, how long it takes, and the
// optimizer's footprint estimate for the chosen order. Returns the order
// (empty for an unsorted plan).
Result<SortKey> RecordPlan(Bench& b, EngineKind kind,
                           const Workflow& workflow) {
  std::vector<double> lower_s;
  std::string engine;
  SortKey key;
  for (int rep = 0; rep < (b.opt.trace ? 5 : 1); ++rep) {
    Timer t;
    auto plan = LowerToPlan(kind, workflow, b.engine);
    lower_s.push_back(t.Seconds());
    if (!plan.ok()) return Fatal("lower", plan.status());
    engine = plan->engine;
    key = plan->sort_key;
  }
  const Schema& schema = *workflow.schema();
  b.report.info["plan_engine"] = engine;
  b.report.info["plan_sort_key"] = key.empty() ? "-" : key.ToString(schema);
  auto est = EstimateFootprint(workflow, key);
  if (!est.ok()) return Fatal("footprint", est.status());
  b.report.est_entries = est->total_entries;
  if (b.opt.trace) {
    b.report.layers["opt.lower_s"] = Median(lower_s);
    b.report.layers["opt.est_entries"] = est->total_entries;
  }
  return key;
}

// Storage write path of the workloads without a session: one seeded 1%
// batch through FactTable::AppendBatch onto `writes`, timed as one op.
void StorageAppend(Bench& b, FactTable& writes, const FactTable& delta) {
  Timer t;
  Status s = writes.AppendBatch(delta);
  const double secs = t.Seconds();
  b.report.Op(s.ok(), "append: " + s.ToString());
  if (s.ok()) b.report.append_s.push_back(secs);
}

// After the appends: `writes` (its ContentHash maintained incrementally)
// must hold exactly the fact file's rows plus every batch, as a table
// built from scratch shows.
Status CheckAppends(Bench& b, const FactTable& writes,
                    const std::function<FactTable(int)>& make_delta) {
  auto expected = ReadFactTableBinary(writes.schema(), b.FactPath());
  if (!expected.ok()) return Fatal("load", expected.status());
  for (int i = 0; i <= kStorageAppends; ++i) {
    Status s = expected->AppendBatch(make_delta(i));
    if (!s.ok()) return Fatal("append", s);
  }
  b.report.Op(expected->num_rows() == writes.num_rows() &&
                  expected->ContentHash() == writes.ContentHash(),
              "appended table differs from one built from scratch");
  return Status::OK();
}

// Storage probes of the traced run, on every workload: Clone +
// SortFactTable in memory, and open + drain of the external sort's batch
// cursor over the fact file under the 16 MiB budget, both on `key`.
void SortProbes(Bench& b, const FactTable& fact, const SortKey& key) {
  std::vector<double> clone_s, sort_s, spill_s;
  SortStats spill;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    SortOptions so;
    so.memory_budget_bytes = b.engine.memory_budget_bytes;
    so.temp_dir = &b.tmp;
    so.threads = b.engine.parallel_threads;
    {  // the sorted copy is freed before the external sort runs
      Timer t;
      FactTable copy = fact.Clone();
      clone_s.push_back(t.Seconds());
      t.Reset();
      auto sorted = SortFactTable(std::move(copy), key, so);
      sort_s.push_back(t.Seconds());
      b.report.Op(sorted.ok() && sorted->num_rows() == fact.num_rows(),
                  "in-memory sort failed");
    }
    so.memory_budget_bytes = kOutOfCoreBudget;
    spill = SortStats{};
    Timer t;
    auto cursor = SortFactFileBatchCursor(fact.schema(), b.FactPath(), key,
                                          so, &spill);
    size_t rows = 0;
    if (cursor.ok()) {
      RecordBatch batch(fact.schema()->num_dims(),
                        fact.schema()->num_measures(), 1024);
      for (;;) {
        auto n = (*cursor)->NextBatch(&batch);
        if (!n.ok() || *n == 0) break;
        rows += *n;
      }
    }
    spill_s.push_back(t.Seconds());
    b.report.Op(rows == fact.num_rows(), "external sort lost rows");
  }
  b.report.layers["storage.clone_s"] = Median(clone_s);
  b.report.layers["storage.sort_s"] = Median(sort_s);
  b.report.layers["storage.sort_rows_per_s"] =
      static_cast<double>(fact.num_rows()) / Median(sort_s);
  b.report.layers["storage.sort_spill_s"] = Median(spill_s);
  b.report.layers["storage.sort_runs"] = static_cast<double>(spill.runs);
  b.report.layers["storage.spilled_bytes"] =
      static_cast<double>(spill.spilled_bytes);
}

// Times a workflow builder (which parses the query's DSL) and the fusion
// of its result as a one-query batch.
Result<Workflow> BuildQuery(Bench& b,
                            const std::function<Result<Workflow>()>& make) {
  std::vector<double> parse_s, fuse_s;
  std::optional<Workflow> workflow;
  for (int rep = 0; rep < (b.opt.trace ? 5 : 1); ++rep) {
    Timer t;
    auto w = make();
    parse_s.push_back(t.Seconds());
    if (!w.ok()) return Fatal("query", w.status());
    workflow.emplace(std::move(*w));
    t.Reset();
    auto fused = FuseWorkflows({&*workflow});
    fuse_s.push_back(t.Seconds());
    if (!fused.ok()) return Fatal("fuse", fused.status());
  }
  if (b.opt.trace) {
    b.report.layers["workflow.parse_s"] = Median(parse_s);
    b.report.layers["workflow.fuse_s"] = Median(fuse_s);
  }
  return std::move(*workflow);
}

// --- the two engine workloads ------------------------------------------------

// One Engine::Run of the workload's query under a context.
using QueryFn = std::function<Result<EvalOutput>(ExecContext&)>;

// Warm-up + verification + timed loop. `reference` holds the AW-RA
// results of the output measures; `side` ops run between the reads.
Status EngineReads(Bench& b, const QueryFn& query, double rows_per_query,
                   const std::map<std::string, MeasureTable>& reference,
                   Interleave& side) {
  // Warm-up: pool spin-up, first-touch faults, memoized LUTs. Its output
  // is the one checked against the reference; later ops must match it.
  ExecContext warm_ctx = b.Context();
  auto warm = query(warm_ctx);
  if (!warm.ok()) return Fatal("warm-up query", warm.status());
  const auto diff = DiffOutputs(*warm, reference);
  b.report.Op(!diff.has_value(),
              "output differs from the AW-RA reference: " + diff.value_or(""));
  const uint64_t digest = Digest(*warm);
  const uint64_t peak = warm->stats.peak_hash_entries;
  b.report.info["result_sort_key"] = warm->stats.sort_key;
  b.report.peak_state_entries = static_cast<double>(peak);

  auto run_one = [&](Tracer* tracer, SpanId op) -> bool {
    ExecContext ctx = b.Context(tracer, op);
    Timer t;
    auto out = query(ctx);
    const double secs = t.Seconds();
    const bool ok = out.ok() && Digest(*out) == digest &&
                    out->stats.peak_hash_entries == peak;
    b.report.Op(ok, out.ok() ? "query output or peak state moved"
                             : "query: " + out.status().ToString());
    if (ok) b.report.query_s.push_back(secs);
    return out.ok();
  };

  if (!b.opt.trace) {
    b.Loop(b.opt.seconds, kMinOps, [&] { return run_one(nullptr, kNoSpan); },
           &side);
  } else {
    // Half the time untraced (the overhead baseline), half with a shared
    // tracer whose spans nest under the benchmark's own op span.
    b.Loop(b.opt.seconds / 2, kMinTracedOps,
           [&] { return run_one(nullptr, kNoSpan); }, &side);
    const double untraced = Median(b.report.query_s);
    std::vector<double> traced;
    b.Loop(
        b.opt.seconds / 2, kMinTracedOps,
        [&] {
          Tracer tracer;
          const SpanId op = tracer.BeginSpan("bench.query");
          const size_t before = b.report.query_s.size();
          const bool ok = run_one(&tracer, op);
          tracer.EndSpan(op);
          if (b.report.query_s.size() > before) {
            traced.push_back(b.report.query_s.back());
            const SpanTree tree(tracer);
            const auto& top = tree.span(op).children;
            b.CheckCoverage(tree, op, top.empty() ? kNoSpan : top.front(),
                            kEnginePhases);
            b.AddExecLayers(tracer, tree, op);
          }
          return ok;
        },
        &side);
    b.report.layers["obs.trace_overhead_frac"] =
        (Median(traced) - untraced) / untraced;
  }
  side.Finish();
  b.report.rows_read =
      rows_per_query * static_cast<double>(b.report.query_s.size());
  return Status::OK();
}

// What distinguishes the two engine workloads.
struct EngineWorkload {
  SchemaPtr schema;
  std::function<Result<Workflow>()> make_query;
  std::function<FactTable()> make_base;
  std::function<FactTable(int)> make_delta;  // the i-th seeded 1% batch
  EngineKind kind;
};

Status RunEngineWorkload(Bench& b, const EngineWorkload& w) {
  CSM_ASSIGN_OR_RETURN(Workflow workflow, BuildQuery(b, w.make_query));
  // Inputs and the reference; the generated table is written to the fact
  // file and dropped.
  std::map<std::string, MeasureTable> reference;
  {
    FactTable gen = w.make_base();
    b.report.info["rows"] = std::to_string(gen.num_rows());
    auto ref = testing_util::ComputeReference(workflow, gen);
    if (!ref.ok()) return Fatal("reference", ref.status());
    reference = OutputReference(std::move(*ref), workflow);
    Status s = WriteFactTableBinary(gen, b.FactPath());
    if (!s.ok()) return Fatal("write", s);
  }
  b.Phase("inputs generated, reference computed");
  ResetPeakRss();

  // Set-up: loading the fact file and encoding it. The first one runs
  // here and its table is the one the reads use; the repeats run
  // interleaved with the reads.
  Status side_status;
  std::optional<FactTable> fact;
  auto setup = [&]() -> Status {
    auto loaded = LoadFacts(b, w.schema, /*setup=*/true);
    if (!loaded.ok()) return loaded.status();
    if (!fact) fact.emplace(std::move(*loaded));
    return Status::OK();
  };
  CSM_RETURN_NOT_OK(setup());
  const FactTable& table = *fact;
  b.Phase("set-up done");

  // The writes go to a copy, so the reads stay on the verified snapshot.
  FactTable writes = table.Clone();
  writes.ContentHash();  // memoized: appends now maintain it incrementally
  // The first append grows the columns' capacity, one copy of the whole
  // table whose cost follows the host's page-fault speed more than the
  // append path. It runs untimed, like the warm-up read; the timed ones
  // after it fit in the grown capacity.
  Status grown = writes.AppendBatch(w.make_delta(0));
  if (!grown.ok()) return Fatal("append", grown);
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= kStorageAppends; ++i) {
    tasks.push_back(
        [&, i] { StorageAppend(b, writes, w.make_delta(i)); });
  }
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const size_t at = tasks.size() * rep / kSetupReps;
    tasks.insert(tasks.begin() + static_cast<std::ptrdiff_t>(at), [&] {
      if (side_status.ok()) side_status = setup();
    });
  }
  Interleave side(std::move(tasks), b.opt.seconds);

  CSM_ASSIGN_OR_RETURN(SortKey key, RecordPlan(b, w.kind, workflow));
  auto engine = MakeEngine(w.kind, b.engine);
  if (!engine.ok()) return Fatal("engine", engine.status());
  const QueryFn query = [&](ExecContext& ctx) {
    return (*engine)->Run(workflow, table, ctx);
  };
  CSM_RETURN_NOT_OK(EngineReads(
      b, query, static_cast<double>(table.num_rows()), reference, side));
  if (!side_status.ok()) return Fatal("set-up", side_status);
  b.report.peak_rss_mb = PeakRssMb();
  b.Phase("reads, appends and set-ups done");

  CSM_RETURN_NOT_OK(CheckAppends(b, writes, w.make_delta));
  if (b.opt.trace) {
    b.report.layers["storage.append_s"] = Median(b.report.append_s);
    SortProbes(b, table,
               key.empty() ? SortScanEngine::DefaultSortKey(workflow) : key);
    b.Phase("storage probes done");
  }
  return Status::OK();
}

// --- workloads ----------------------------------------------------------------

// Fig. 6(f) combined network query on 1M netlog rows, adaptive engine.
Status NetAdhoc(Bench& b) {
  SchemaPtr schema = MakeNetworkLogSchema();
  const uint64_t seed = b.opt.seed;
  return RunEngineWorkload(
      b, {schema, [=] { return MakeCombinedNetworkQuery(schema); },
          [=] { return NetRows(schema, seed, kNetRows); },
          [=](int i) { return NetRows(schema, DeltaSeed(seed, i), kDeltaRows); },
          EngineKind::kAdaptive});
}

// Fig. 6(a) Q1 with seven child/parent joins on 400k synthetic rows,
// single-scan engine (hash-probe and combine bound, no sort).
Status CubeQ1Hash(Bench& b) {
  SchemaPtr schema = MakeSyntheticSchema(4, 3, 10, 1000);
  const uint64_t seed = b.opt.seed;
  return RunEngineWorkload(
      b, {schema, [=] { return MakeQ1ChildParent(schema, 7); },
          [=] { return CubeRows(schema, seed, kCubeRows); },
          [=](int i) { return CubeRows(schema, DeltaSeed(seed, i),
                                       kCubeRows / 100); },
          EngineKind::kSingleScan});
}

// Reads the batch list examples/queries/dashboard.txt: one DSL path per
// line relative to the list, '#' comments and blank lines skipped.
Result<std::vector<std::string>> DashboardDsl(const std::string& root) {
  const std::string dir = root + "/examples/queries/";
  std::ifstream list(dir + "dashboard.txt");
  if (!list) return Status::NotFound("cannot read " + dir + "dashboard.txt");
  std::vector<std::string> dsl;
  std::string line;
  while (std::getline(list, line)) {
    line.erase(0, line.find_first_not_of(" \t\r"));
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (line.empty() || line[0] == '#') continue;
    std::ifstream in(dir + line);
    if (!in) return Status::NotFound("cannot read " + dir + line);
    std::ostringstream text;
    text << in.rdbuf();
    dsl.push_back(text.str());
  }
  if (dsl.empty()) return Status::InvalidArgument("empty dashboard batch");
  return dsl;
}

// A dashboard session over 1M netlog rows. The run is a row of identical
// episodes: set up a fresh session from the fact file (timed as setup_s),
// then kEpisodeCycles cycles, each appending that cycle's seeded 1% delta
// through AppendAndRefresh and re-reading the three-query batch. Every
// episode replays the same deltas onto the same table, so the i-th cycle
// of every episode, and of every run, works on a table of the same size:
// a faster run samples the same cycles more often instead of reaching
// cycles on a larger table, which would move the medians by itself.
Status DashboardAppend(Bench& b) {
  SchemaPtr schema = MakeNetworkLogSchema();
  auto dsl = DashboardDsl(b.opt.root);
  if (!dsl.ok()) return Fatal("dashboard", dsl.status());
  std::vector<Workflow> queries;
  for (const std::string& text : *dsl) {
    auto w = Workflow::Parse(schema, text);
    if (!w.ok()) return Fatal("parse", w.status());
    queries.push_back(std::move(*w));
  }
  std::vector<std::map<std::string, MeasureTable>> reference;
  {
    FactTable gen = NetRows(schema, b.opt.seed, kNetRows);
    b.report.info["rows"] = std::to_string(gen.num_rows());
    Status s = WriteFactTableBinary(gen, b.FactPath());
    if (!s.ok()) return Fatal("write", s);
    for (const Workflow& q : queries) {
      auto ref = testing_util::ComputeReference(q, gen);
      if (!ref.ok()) return Fatal("reference", ref.status());
      reference.push_back(OutputReference(std::move(*ref), q));
    }
  }
  b.Phase("inputs generated, reference computed");

  // Plan record of the fused batch the session executes; in the traced
  // run also the storage probes, on the table as the file holds it.
  std::vector<const Workflow*> ptrs;
  for (const Workflow& q : queries) ptrs.push_back(&q);
  std::vector<double> fuse_s;
  std::optional<FusedPlan> fused;
  for (int rep = 0; rep < (b.opt.trace ? 5 : 1); ++rep) {
    Timer t;
    auto f = FuseWorkflows(ptrs);
    fuse_s.push_back(t.Seconds());
    if (!f.ok()) return Fatal("fuse", f.status());
    fused.emplace(std::move(*f));
  }
  CSM_ASSIGN_OR_RETURN(SortKey key,
                       RecordPlan(b, EngineKind::kAdaptive, fused->combined));
  if (b.opt.trace) {
    b.report.layers["workflow.fuse_s"] = Median(fuse_s);
    b.report.layers["workflow.shared_frac"] =
        static_cast<double>(fused->shared_measures) /
        static_cast<double>(std::max<size_t>(1, fused->total_measures));
    CSM_ASSIGN_OR_RETURN(FactTable probe, LoadFacts(b, schema, false));
    SortProbes(b, probe, key);
  }
  ResetPeakRss();

  SessionOptions so;
  so.engine_options = b.engine;
  so.cache_capacity = 4;
  so.delta_patching = true;

  // Set-up: load + encode + parse + session + the cold first batch that
  // fills the cache and the delta state. The first episode's cold outputs
  // are checked against the AW-RA reference, later ones against its
  // digests and peak state.
  struct Episode {
    std::optional<FactTable> fact;
    std::unique_ptr<QuerySession> session;
  };
  std::vector<uint64_t> cold_digests;
  auto setup = [&](bool first) -> Result<Episode> {
    Episode out;
    Timer total;
    auto loaded = LoadFacts(b, schema, /*setup=*/false);
    if (!loaded.ok()) return loaded.status();
    Timer t;
    std::vector<Workflow> batch;
    for (const std::string& text : *dsl) {
      auto w = Workflow::Parse(schema, text);
      if (!w.ok()) return Fatal("parse", w.status());
      batch.push_back(std::move(*w));
    }
    if (b.opt.trace) b.layer_samples.Add("workflow.parse_s", t.Seconds());
    auto created = QuerySession::Create(EngineKind::kAdaptive, so);
    if (!created.ok()) return Fatal("session", created.status());
    for (Workflow& w : batch) {
      auto idx = (*created)->Submit(std::move(w));
      if (!idx.ok()) return Fatal("submit", idx.status());
    }
    Tracer tracer;
    const SpanId op = tracer.BeginSpan("bench.cold_batch");
    ExecContext ctx = b.Context(b.opt.trace ? &tracer : nullptr, op);
    t.Reset();
    auto cold = (*created)->RunPending(*loaded, ctx);
    const double cold_s = t.Seconds();
    tracer.EndSpan(op);
    if (!cold.ok()) return Fatal("cold batch", cold.status());
    b.report.setup_s.push_back(total.Seconds());
    if (b.opt.trace) {
      b.layer_samples.Add("session.cold_batch_s", cold_s);
      if (first) {
        const SpanTree tree(tracer);
        b.CheckCoverage(tree, op, tree.Find(op, "adaptive"), kEnginePhases);
        b.AddExecLayers(tracer, tree, op);
      }
    }
    const SessionReport report = (*created)->last_report();
    const auto peak = static_cast<double>(report.run_stats.peak_hash_entries);
    if (first) {
      b.report.info["result_sort_key"] = report.run_stats.sort_key;
      b.report.peak_state_entries = peak;
      for (size_t i = 0; i < cold->size(); ++i) {
        const auto diff = DiffOutputs((*cold)[i], reference[i]);
        b.report.Op(!diff.has_value(),
                    "query " + std::to_string(i) +
                        " differs from the AW-RA reference: " +
                        diff.value_or(""));
        cold_digests.push_back(Digest((*cold)[i]));
      }
      reference.clear();
    } else {
      bool same = cold->size() == cold_digests.size() &&
                  peak == b.report.peak_state_entries;
      for (size_t i = 0; same && i < cold->size(); ++i) {
        same = Digest((*cold)[i]) == cold_digests[i];
      }
      b.report.Op(same, "cold batch output or peak state moved");
    }
    out.fact.emplace(std::move(*loaded));
    out.session = std::move(*created);
    return out;
  };

  // One cycle: append the i-th delta, then read. In the traced run every
  // second episode runs with a shared tracer.
  std::vector<double> untraced_reads, traced_reads;
  double hits = 0, misses = 0, delta_coverage = 1.0;
  int cycles = 0;
  std::vector<EvalOutput> last;
  auto run_cycle = [&](Episode& ep, int i, bool traced) -> bool {
    ++cycles;
    FactTable& fact = *ep.fact;
    QuerySession* session = ep.session.get();
    FactTable delta = NetRows(schema, DeltaSeed(b.opt.seed, i), kDeltaRows);
    Tracer tracer;
    const SpanId append_op = tracer.BeginSpan("bench.append");
    ExecContext actx = b.Context(traced ? &tracer : nullptr, append_op);
    Timer t;
    auto appended = session->AppendAndRefresh(fact, delta, actx);
    const double append_secs = t.Seconds();
    tracer.EndSpan(append_op);
    const bool append_ok =
        appended.ok() && appended->patched_queries == queries.size();
    b.report.Op(append_ok, appended.ok()
                               ? "append did not patch every cached query"
                               : "append: " + appended.status().ToString());
    if (!appended.ok()) return false;
    if (append_ok) b.report.append_s.push_back(append_secs);

    for (const Workflow& q : queries) {
      auto idx = session->Submit(q);
      if (!idx.ok()) return false;
    }
    const SpanId read_op = tracer.BeginSpan("bench.read");
    ExecContext rctx = b.Context(traced ? &tracer : nullptr, read_op);
    t.Reset();
    auto out = session->RunPending(fact, rctx);
    const double read_secs = t.Seconds();
    tracer.EndSpan(read_op);
    const SessionReport rep = session->last_report();
    hits += static_cast<double>(rep.cache_hits);
    misses += static_cast<double>(rep.cache_misses);
    bool read_ok = out.ok() && out->size() == queries.size() &&
                   rep.cache_hits == queries.size();
    if (read_ok) {
      for (const EvalOutput& o : *out) read_ok &= !o.tables.empty();
    }
    b.report.Op(read_ok, out.ok() ? "refreshed read missed the cache"
                                  : "read: " + out.status().ToString());
    if (!out.ok()) return false;
    if (read_ok) {
      b.report.query_s.push_back(read_secs);
      b.report.rows_read += static_cast<double>(fact.num_rows());
      (traced ? traced_reads : untraced_reads).push_back(read_secs);
    }
    last = std::move(*out);

    if (traced) {
      const SpanTree tree(tracer);
      b.CheckCoverage(tree, append_op, kNoSpan, {});
      delta_coverage = std::min(
          delta_coverage,
          tree.CoverageBy(tree.Find(append_op, "session.append"),
                          kAppendPhases));
      b.CheckCoverage(tree, read_op, kNoSpan, {});
      b.layer_samples.Add("delta.apply_self_s",
                          tree.SelfOf(append_op, "delta.apply"));
      b.layer_samples.Add("session.append_self_s",
                          tree.SelfOf(append_op, "session.append"));
      b.layer_samples.Add("session.query_self_s",
                          tree.SelfOf(read_op, "session") +
                              tree.SelfOf(read_op, "session.query"));
      const double patched = static_cast<double>(appended->patched_measures);
      const double recomputed =
          static_cast<double>(appended->recomputed_measures);
      b.layer_samples.Add("delta.dirty_regions",
                          static_cast<double>(appended->dirty_regions));
      b.layer_samples.Add("delta.patched_measures", patched);
      b.layer_samples.Add("delta.recomputed_measures", recomputed);
      b.layer_samples.Add("delta.patched_frac",
                          patched + recomputed > 0
                              ? patched / (patched + recomputed)
                              : 0);
    }
    return true;
  };

  // Episodes, whole ones only, until the window has passed.
  std::optional<Episode> ep;
  Timer window;
  int episodes = 0;
  for (; episodes < kMinEpisodes || window.Seconds() < b.opt.seconds;
       ++episodes) {
    ep.reset();  // one live session at a time
    auto made = setup(episodes == 0);
    if (!made.ok()) return made.status();
    ep.emplace(std::move(*made));
    const bool traced = b.opt.trace && episodes % 2 == 1;
    for (int i = 0; i < kEpisodeCycles; ++i) {
      if (!run_cycle(*ep, i, traced)) return Status::OK();
    }
    // Taken at a fixed point, one session's lifetime, so the number of
    // episodes the window fits does not move it.
    if (episodes == 0) b.report.peak_rss_mb = PeakRssMb();
  }
  if (b.opt.trace) {
    const double untraced = Median(untraced_reads);
    b.report.layers["obs.trace_overhead_frac"] =
        untraced > 0 ? (Median(traced_reads) - untraced) / untraced : 0;
    b.report.layers["session.cache_hit_frac"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    b.report.layers["delta.apply_coverage_min"] = delta_coverage;
  }
  b.Phase("episodes done");

  // The patched dashboard must equal a fresh engine run over the grown
  // table (within DiffTables' 1e-9 relative tolerance: patching may
  // reassociate floating-point sums).
  const FactTable& fact = *ep->fact;
  auto fresh_engine = MakeEngine(EngineKind::kAdaptive, b.engine);
  if (!fresh_engine.ok()) return Fatal("engine", fresh_engine.status());
  for (size_t i = 0; i < queries.size() && i < last.size(); ++i) {
    ExecContext ctx = b.Context();
    auto fresh = (*fresh_engine)->Run(queries[i], fact, ctx);
    if (!fresh.ok()) {
      b.report.Op(false, "fresh run: " + fresh.status().ToString());
      continue;
    }
    const auto diff = DiffOutputs(last[i], fresh->tables);
    b.report.Op(!diff.has_value(),
                "patched query " + std::to_string(i) +
                    " differs from a fresh run: " + diff.value_or(""));
  }

  if (b.opt.trace) {
    // The storage append alone, on a copy of the grown table.
    std::vector<double> append_s;
    for (int rep = 0; rep < kLayerReps; ++rep) {
      FactTable copy = fact.Clone();
      FactTable delta = NetRows(
          schema, DeltaSeed(b.opt.seed, kEpisodeCycles + rep), kDeltaRows);
      Timer t;
      Status s = copy.AppendBatch(delta);
      append_s.push_back(t.Seconds());
      b.report.Op(s.ok(), "append: " + s.ToString());
    }
    b.report.layers["storage.append_s"] = Median(append_s);
  }
  b.report.info["episodes"] = std::to_string(episodes);
  b.report.info["cycles"] = std::to_string(cycles);
  b.Phase("patched results checked");
  return Status::OK();
}

// --- entry point ----------------------------------------------------------------

const std::map<std::string, Status (*)(Bench&)>& Workloads() {
  static const std::map<std::string, Status (*)(Bench&)> kWorkloads = {
      {"net_adhoc", NetAdhoc},
      {"cube_q1_hash", CubeQ1Hash},
      {"dashboard_append", DashboardAppend},
  };
  return kWorkloads;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: csm_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --root DIR --tmp DIR\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--root") {
      opt.root = v;
    } else if (flag == "--tmp") {
      opt.tmp = v;

    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  auto it = Workloads().find(opt.workload);
  if (it == Workloads().end()) return Usage("unknown workload");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");

  auto tmp = TempDir::Make(opt.tmp);
  if (!tmp.ok()) {
    std::fprintf(stderr, "%s\n", tmp.status().ToString().c_str());
    return 2;
  }
  Bench b{opt, std::move(*tmp), EngineOptions{}, Report{}, LayerSamples{}};
  b.engine.parallel_threads = ParallelThreads();
  b.engine.temp_dir = b.tmp.path();
  b.report.info["workload"] = opt.workload;
  b.report.info["seed"] = std::to_string(opt.seed);
  b.report.info["hardware_threads"] = std::to_string(HardwareThreads());
  b.report.info["parallel_threads"] =
      std::to_string(b.engine.parallel_threads);

  Status s = it->second(b);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(),
                 s.ToString().c_str());
    return 2;
  }
  b.layer_samples.MedianInto(&b.report.layers);
  if (opt.trace) {
    // The span-phase rule: every traced op is >= 95% covered.
    const auto& cov = b.report.coverage;
    const double min_cov =
        cov.empty() ? 0.0 : *std::min_element(cov.begin(), cov.end());
    b.report.layers["obs.span_coverage_min"] = min_cov;
    b.report.layers["opt.footprint_ratio"] =
        b.report.est_entries / std::max(1.0, b.report.peak_state_entries);
    b.report.Op(min_cov >= kMinCoverage,
                "child spans cover only " + std::to_string(min_cov) +
                    " of a traced op");
  }
  std::printf("%s\n", b.report.ToJson().c_str());
  return b.report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace csm

int main(int argc, char** argv) { return csm::Main(argc, argv); }
