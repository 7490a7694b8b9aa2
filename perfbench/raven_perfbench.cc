// raven_perfbench: the end-to-end benchmark binary.
//
// Runs one workload against an in-process server::QueryServer configured
// like raven_serve's defaults and drives it over Unix-socket connections:
//
//   point_serve   online scoring: prepared + ad-hoc point PREDICTs on four
//                 connections, closed loop, then a Poisson open loop
//   batch_score   one analyst, closed loop, five bulk statement classes
//   disk_refresh  1M-row .rvc table, two readers plus a model refresher
//
// Every input (tables, training sets, ids, class order, arrival times) is
// derived from --seed. Every served result is checked byte for byte against
// a reference computed in-process at dop 1 before the server starts.
// End-to-end metrics come from the untraced timed phase; with --trace 1 the
// server is stopped afterwards and a seeded sample of the workload replays
// one statement at a time through the public module entry points, recording
// one span per call (name, start, end, parent, statement id).
//
// The last line of stdout is one JSON object holding every metric, the
// request counts and the run's fingerprint; run.py turns it into the
// benchmark's result line.
//
//   raven_perfbench --workload=point_serve --seed=1 --seconds=20 --trace=0
//                   --work-dir=DIR [--smoke] [--corrupt-reference]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "data/flight.h"
#include "data/hospital.h"
#include "ir/ir.h"
#include "optimizer/converters.h"
#include "raven/raven.h"
#include "server/client.h"
#include "server/query_server.h"
#include "server/server_protocol.h"
#include "storage/columnar.h"

namespace {

using Clock = std::chrono::steady_clock;
using raven::Rng;
using raven::relational::Table;
using raven::server::ServerResponse;
using raven::server::ServerResponseKind;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "raven_perfbench: %s\n", what.c_str());
  std::exit(1);
}

void MustOk(const raven::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Must(raven::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  return x * 0x94D049BB133111EBULL + 1;
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  bool smoke = false;
  bool corrupt_reference = false;
};

bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  *value = arg + n;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (TakeFlag(argv[i], "--workload=", &v)) {
      args.workload = v;
    } else if (TakeFlag(argv[i], "--seed=", &v)) {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (TakeFlag(argv[i], "--seconds=", &v)) {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (TakeFlag(argv[i], "--trace=", &v)) {
      args.trace = v == "1";
    } else if (TakeFlag(argv[i], "--work-dir=", &v)) {
      args.work_dir = v;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--corrupt-reference") == 0) {
      args.corrupt_reference = true;
    } else {
      Die(std::string("unknown flag ") + argv[i]);
    }
  }
  if (args.workload != "point_serve" && args.workload != "batch_score" &&
      args.workload != "disk_refresh") {
    Die("--workload must be point_serve, batch_score or disk_refresh");
  }
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
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
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Statements and their reference answers
// ---------------------------------------------------------------------------

std::string SerializeTable(const Table& table) {
  raven::BinaryWriter writer;
  table.Serialize(&writer);
  return writer.Release();
}

/// One statement a client sends. `prepared` non-empty means EXECUTE of that
/// prepared name with `params`; `sql` is always the equivalent ad-hoc text
/// (the replay and the reference use it).
struct Statement {
  std::string cls;
  std::string sql;
  std::string prepared;
  std::vector<double> params;
  /// Reference key: statements with the same key must return the same
  /// table. Point lookups key on (model, id) and accept any of the model's
  /// versions listed under that key.
  std::string ref_key;
  /// PREDICT model this statement scores (empty for pure SQL) and the rows
  /// it covers, for the traced replay's direct NNRT/storage probes.
  std::string model;
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
};

/// Accepted serialized answers per reference key. Point lookups are kept
/// as one score per id and serialized on demand: a full PREDICT per model
/// answers every id.
class ReferenceBook {
 public:
  void Add(const std::string& key, std::string bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& accepted = answers_[key];
    if (std::find(accepted.begin(), accepted.end(), bytes) == accepted.end()) {
      accepted.push_back(std::move(bytes));
    }
  }
  /// Replaces the accepted answers of `key` (the refresher pins the version
  /// it just installed).
  void Set(const std::string& key, std::vector<std::string> answers) {
    std::lock_guard<std::mutex> lock(mu_);
    answers_[key] = std::move(answers);
  }
  /// Scores by id of one model's PREDICT over the lookup id pool.
  void SetPointScores(const std::string& model,
                      std::map<std::int64_t, double> scores) {
    std::lock_guard<std::mutex> lock(mu_);
    points_[model] = std::move(scores);
  }
  bool Matches(const std::string& key, const Table& table) const {
    const std::string bytes = SerializeTable(table);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = answers_.find(key);
    if (it != answers_.end()) {
      return std::find(it->second.begin(), it->second.end(), bytes) !=
             it->second.end();
    }
    // "point:<model>:<id>"
    const std::size_t a = key.find(':');
    const std::size_t b = key.rfind(':');
    if (key.compare(0, a, "point") != 0 || b == a) return false;
    auto scores = points_.find(key.substr(a + 1, b - a - 1));
    if (scores == points_.end()) return false;
    const std::int64_t id = std::stoll(key.substr(b + 1));
    auto score = scores->second.find(id);
    return score != scores->second.end() &&
           SerializeTable(PointTable(static_cast<double>(id),
                                     score->second)) == bytes;
  }
  /// Flips one bit of every answer (the self-test's planted fault).
  void Corrupt() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, answers] : answers_) {
      for (auto& bytes : answers) {
        if (!bytes.empty()) bytes[bytes.size() - 1] ^= 0x01;
      }
    }
    for (auto& [model, scores] : points_) {
      for (auto& [id, p] : scores) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &p, sizeof(bits));
        bits ^= 1;
        std::memcpy(&p, &bits, sizeof(bits));
      }
    }
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = answers_.size();
    for (const auto& [model, scores] : points_) n += scores.size();
    return n;
  }

 private:
  static Table PointTable(double id, double p) {
    Table table;
    MustOk(table.AddNumericColumn("id", {id}), "point table");
    MustOk(table.AddNumericColumn("p", {p}), "point table");
    return table;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::string>> answers_;
  std::map<std::string, std::map<std::int64_t, double>> points_;
};

std::string PredictSelect(const std::string& model, const std::string& table) {
  return "SELECT id, p FROM PREDICT(MODEL='" + model + "', DATA=" + table +
         ") WITH(p float)";
}

std::string PointSql(const std::string& model, const std::string& table,
                     std::int64_t id) {
  return PredictSelect(model, table) + " WHERE id = " + std::to_string(id);
}

std::string PointKey(const std::string& model, std::int64_t id) {
  return "point:" + model + ":" + std::to_string(id);
}

// ---------------------------------------------------------------------------
// Request accounting
// ---------------------------------------------------------------------------

struct Outcome {
  bool ok = false;       // a table came back and matched the reference
  bool refused = false;  // kBusy
  bool wrong = false;    // a table came back but did not match
  double roundtrip_us = 0.0;
  double engine_us = 0.0;
  double queue_wait_us = 0.0;
  bool plan_cache_hit = false;
};

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t refused = 0;
  std::int64_t wrong = 0;
  void Add(const Outcome& o) {
    ++attempted;
    if (o.refused) {
      ++refused;
    } else if (o.wrong) {
      ++wrong;
    } else if (!o.ok) {
      ++failed;
    }
  }
  void Merge(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    refused += t.refused;
    wrong += t.wrong;
  }
  std::int64_t bad() const { return failed + refused + wrong; }
};

/// Sends `stmt`, checks the answer, and records what the server reported.
Outcome Send(raven::server::ServerClient* client, const Statement& stmt,
             const ReferenceBook& refs) {
  Outcome out;
  const auto start = Clock::now();
  auto response = stmt.prepared.empty()
                      ? client->Query(stmt.sql)
                      : client->ExecutePrepared(stmt.prepared, stmt.params);
  out.roundtrip_us = MicrosBetween(start, Clock::now());
  if (!response.ok()) return out;
  if (response->kind == ServerResponseKind::kBusy) {
    out.refused = true;
    return out;
  }
  if (response->kind != ServerResponseKind::kTable) {
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) < 3) {
      std::fprintf(stderr, "raven_perfbench: '%s' failed: %s\n",
                   stmt.sql.c_str(), response->message.c_str());
    }
    return out;
  }
  out.engine_us = response->total_millis * 1e3;
  out.queue_wait_us = response->queue_wait_micros;
  out.plan_cache_hit = response->plan_cache_hit;
  if (refs.Matches(stmt.ref_key, response->table)) {
    out.ok = true;
  } else {
    out.wrong = true;
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) < 3) {
      std::fprintf(stderr, "raven_perfbench: wrong answer to '%s'\n",
                   stmt.sql.c_str());
    }
  }
  return out;
}

/// Client-side samples of one timed phase.
struct PhaseSamples {
  std::vector<double> latency_ms;  // scheduled (open loop) or send -> done
  std::vector<double> late_ms;     // open loop: send time - scheduled time
  std::vector<double> roundtrip_us;
  std::vector<double> engine_us;
  std::vector<double> edge_us;
  std::vector<double> queue_wait_us;
  std::int64_t plan_cache_hits = 0;
  std::int64_t tables = 0;
  Tally tally;
  double wall_s = 0.0;

  std::map<std::string, std::vector<double>> class_ms;
  std::vector<double> done_s;  // completion times since the phase started
  std::vector<double> round_qps;  // batch_score: statements/s of each round

  void Add(const Outcome& o, double latency, const std::string& cls) {
    tally.Add(o);
    latency_ms.push_back(latency);
    class_ms[cls].push_back(latency);
    if (!o.ok && !o.wrong) return;
    ++tables;
    roundtrip_us.push_back(o.roundtrip_us);
    engine_us.push_back(o.engine_us);
    edge_us.push_back(o.roundtrip_us - o.engine_us);
    queue_wait_us.push_back(o.queue_wait_us);
    if (o.plan_cache_hit) ++plan_cache_hits;
  }
  void Merge(const PhaseSamples& s) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&latency_ms, s.latency_ms);
    cat(&late_ms, s.late_ms);
    cat(&roundtrip_us, s.roundtrip_us);
    cat(&engine_us, s.engine_us);
    cat(&edge_us, s.edge_us);
    cat(&queue_wait_us, s.queue_wait_us);
    cat(&done_s, s.done_s);
    cat(&round_qps, s.round_qps);
    for (const auto& [cls, v] : s.class_ms) cat(&class_ms[cls], v);
    plan_cache_hits += s.plan_cache_hits;
    tables += s.tables;
    tally.Merge(s.tally);
  }
};

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// Server settings: raven_serve's defaults.
raven::server::QueryServerOptions ServeDefaults(const std::string& socket) {
  raven::server::QueryServerOptions options;
  options.unix_socket_path = socket;
  options.plan_cache_capacity = 128;
  options.admission.max_concurrent = 4;
  options.admission.max_queue = 16;
  options.default_execution.parallelism = 4;
  options.default_execution.predict_batch_window_micros = 0;
  options.default_execution.nn_backend = raven::nnrt::BackendKind::kReference;
  return options;
}

constexpr std::int64_t kServeDop = 4;
constexpr std::size_t kSessionCache = 32;

struct Model {
  std::string name;
  std::string script;
  raven::ml::ModelPipeline pipeline;
};

struct Sizes {
  std::int64_t patients = 200000;
  std::int64_t flights = 200000;
  std::int64_t disk_patients = 1000000;
  std::int64_t train_rows = 20000;
  std::int64_t block_rows = 4096;
};

Sizes SizesFor(const Args& args) {
  Sizes sizes;
  if (args.smoke) {
    sizes.patients = 3000;
    sizes.flights = 3000;
    sizes.disk_patients = 20000;
    sizes.train_rows = 2000;
    sizes.block_rows = 1024;
  }
  return sizes;
}

/// Everything the benchmark generates before set-up; none of it is timed.
struct Inputs {
  Sizes sizes;
  Table patients;  // in-memory hospital table (point_serve, batch_score)
  Table flights;
  Table disk_source;  // disk_refresh: the rows written to the .rvc file
  std::vector<Model> models;  // inserted at set-up
  Model rf_alt;               // the second `rf` version the refresher swaps in
  std::vector<std::int64_t> probe_ids;  // refresh-probe point ids
};

Inputs MakeInputs(const Args& args) {
  Inputs in;
  in.sizes = SizesFor(args);
  const std::uint64_t s = args.seed;
  const bool disk = args.workload == "disk_refresh";
  auto train = raven::data::MakeHospitalDataset(in.sizes.train_rows, Mix(s, 1));
  auto train_alt =
      raven::data::MakeHospitalDataset(in.sizes.train_rows, Mix(s, 2));
  Model rf{"rf", raven::data::HospitalForestScript(),
           Must(raven::data::TrainHospitalForest(train, 10, 8), "train rf")};
  in.rf_alt = Model{
      "rf", raven::data::HospitalForestScript(),
      Must(raven::data::TrainHospitalForest(train_alt, 10, 8), "train rf v2")};
  Model mlp{"mlp", raven::data::HospitalMlpScript(),
            Must(raven::data::TrainHospitalMlp(train), "train mlp")};
  in.models.push_back(std::move(rf));
  in.models.push_back(std::move(mlp));
  std::int64_t table_rows = in.sizes.patients;
  if (disk) {
    table_rows = in.sizes.disk_patients;
    in.disk_source =
        std::move(raven::data::MakeHospitalDataset(table_rows, Mix(s, 3))
                      .joined);
  } else {
    in.patients = std::move(
        raven::data::MakeHospitalDataset(in.sizes.patients, Mix(s, 3)).joined);
    auto flights = raven::data::MakeFlightDataset(in.sizes.flights, Mix(s, 4));
    auto flight_train =
        raven::data::MakeFlightDataset(in.sizes.train_rows, Mix(s, 5));
    in.models.push_back(
        Model{"delay", raven::data::FlightLogregScript(),
              Must(raven::data::TrainFlightLogreg(flight_train, 0.01),
                   "train delay")});
    in.flights = std::move(flights.flights);
  }
  Rng rng(Mix(s, 6));
  for (int i = 0; i < 16; ++i) {
    in.probe_ids.push_back(rng.UniformInt(0, table_rows - 1));
  }
  return in;
}

const Model& FindModel(const Inputs& in, const std::string& name) {
  for (const auto& m : in.models) {
    if (m.name == name) return m;
  }
  Die("no model " + name);
}

/// The statement generator of one workload. Each client stream owns an Rng
/// seeded from the workload seed and its stream index.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Every distinct statement whose answer the reference must know,
  /// computed at dop 1 before the server starts (point lookups excluded:
  /// they are answered from a full per-model PREDICT or a probe).
  virtual std::vector<Statement> ReferenceStatements() const = 0;
  /// One statement per shape, executed cold during set-up.
  virtual std::vector<Statement> ColdStatements() const = 0;
  /// PREPARE texts each connection sends after connecting.
  virtual std::vector<std::string> Prepares() const { return {}; }
  /// The next statements of stream `rng`: one statement, or for
  /// batch_score one whole round of its class mix.
  virtual std::vector<Statement> Round(Rng* rng) const = 0;
  /// Seeded replay sample for the traced run.
  virtual std::vector<Statement> ReplaySample(std::uint64_t seed) const = 0;
  /// Tail percentile, recorded in BENCHMARK.json: the higher of p90 and
  /// p99 that keeps at least 10 samples beyond it at a 20-second run.
  virtual double TailQuantile() const = 0;
};

/// An ad-hoc statement answered by the reference of its own text.
Statement SqlStatement(const std::string& cls, const std::string& sql,
                       const std::string& model, std::int64_t row_begin,
                       std::int64_t row_end) {
  Statement st;
  st.cls = cls;
  st.sql = sql;
  st.ref_key = "sql:" + sql;
  st.model = model;
  st.row_begin = row_begin;
  st.row_end = row_end;
  return st;
}

// -- point_serve ------------------------------------------------------------

class PointServe final : public Workload {
 public:
  /// Lookups draw ids uniformly from a seeded pool per model. The pool is
  /// far larger than the 128-entry plan cache, so ad-hoc texts (whose cache
  /// key includes the literal) keep missing, and small enough that its
  /// reference scores are one dop-1 PREDICT per model.
  static constexpr int kPoolIds = 2048;
  static constexpr const char* kModels[3] = {"rf", "mlp", "delay"};

  PointServe(std::int64_t patients, std::int64_t flights, std::uint64_t seed) {
    Rng rng(Mix(seed, 10));
    for (const char* m : kModels) {
      const std::int64_t rows =
          std::string(m) == "delay" ? flights : patients;
      std::set<std::int64_t> ids;
      while (static_cast<std::int64_t>(ids.size()) <
             std::min<std::int64_t>(kPoolIds, rows)) {
        ids.insert(rng.UniformInt(0, rows - 1));
      }
      pools_[m].assign(ids.begin(), ids.end());
    }
  }

  /// `SELECT id, p ... WHERE id IN (<pool>)`: the reference for every
  /// lookup of `model`.
  std::string PoolSql(const std::string& model) const {
    std::string sql = PredictSelect(model, TableOf(model)) + " WHERE id IN (";
    const auto& pool = pools_.at(model);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      sql += (i > 0 ? ", " : "") + std::to_string(pool[i]);
    }
    return sql + ")";
  }

  std::vector<Statement> ReferenceStatements() const override { return {}; }

  std::vector<Statement> ColdStatements() const override {
    std::vector<Statement> out;
    for (const char* m : kModels) {
      out.push_back(Make(m, pools_.at(m)[0], true));
      out.push_back(Make(m, pools_.at(m)[1], false));
    }
    return out;
  }

  std::vector<std::string> Prepares() const override {
    std::vector<std::string> out;
    for (const char* m : kModels) {
      out.push_back("PREPARE pt_" + std::string(m) + " AS " +
                    PredictSelect(m, TableOf(m)) + " WHERE id = ?");
    }
    return out;
  }

  std::vector<Statement> Round(Rng* rng) const override {
    const bool prepared = rng->NextDouble() < 0.85;
    const char* model = kModels[rng->NextUint(3)];
    const auto& pool = pools_.at(model);
    return {Make(model, pool[rng->NextUint(pool.size())], prepared)};
  }

  std::vector<Statement> ReplaySample(std::uint64_t seed) const override {
    Rng rng(Mix(seed, 40));
    std::vector<Statement> out;
    for (int i = 0; i < 60; ++i) out.push_back(Round(&rng).front());
    return out;
  }

  double TailQuantile() const override { return 0.99; }

  static std::string TableOf(const std::string& model) {
    return model == "delay" ? "flights" : "patients";
  }

 private:
  Statement Make(const std::string& model, std::int64_t id,
                 bool prepared) const {
    Statement st;
    st.cls = prepared ? "prepared" : "adhoc";
    st.sql = PointSql(model, TableOf(model), id);
    if (prepared) {
      st.prepared = "pt_" + model;
      st.params = {static_cast<double>(id)};
    }
    st.ref_key = PointKey(model, id);
    st.model = model;
    st.row_begin = id;
    st.row_end = id + 1;
    return st;
  }

  std::map<std::string, std::vector<std::int64_t>> pools_;
};

// -- batch_score ------------------------------------------------------------

class BatchScore final : public Workload {
 public:
  /// Statements per class in one round. Chosen so that at the seed commit
  /// no class takes more than ~40% of the workload's time, and so that the
  /// median falls well inside the lr_filter cluster and the p90 inside the
  /// rf_cohort cluster, not on the edge between two clusters (see
  /// perfbench/README.md).
  static constexpr std::pair<const char*, int> kWeights[5] = {
      {"rf_cohort", 3}, {"mlp_full", 8}, {"lr_filter", 26},
      {"hicard_group", 2}, {"topk", 2}};

  BatchScore(std::int64_t patients, std::uint64_t seed) : patients_(patients) {
    Rng rng(Mix(seed, 20));
    const std::int64_t cohort = std::max<std::int64_t>(patients / 50, 1);
    // The seed places the cohorts; the amount of work per class is the
    // same for every seed.
    for (int v = 0; v < 2; ++v) {
      const std::int64_t a = rng.UniformInt(0, patients - cohort);
      variants_["rf_cohort"].push_back(Cohort(a, a + cohort));
    }
    for (double d : {800.0, 1200.0}) {
      variants_["lr_filter"].push_back(LrFilter(d));
    }
    for (double age : {40.0, 50.0}) variants_["topk"].push_back(TopK(age));
    variants_["mlp_full"].push_back(MlpFull());
    variants_["hicard_group"].push_back(HicardGroup());
  }

  std::vector<Statement> ReferenceStatements() const override {
    std::vector<Statement> out;
    for (const auto& [cls, list] : variants_) {
      out.insert(out.end(), list.begin(), list.end());
    }
    return out;
  }

  std::vector<Statement> ColdStatements() const override {
    std::vector<Statement> out;
    for (const auto& [cls, list] : variants_) out.push_back(list.front());
    return out;
  }

  /// One round: the weighted multiset of classes in a seeded order.
  std::vector<Statement> Round(Rng* rng) const override {
    std::vector<const char*> classes;
    for (const auto& [cls, weight] : kWeights) {
      for (int i = 0; i < weight; ++i) classes.push_back(cls);
    }
    for (std::size_t i = classes.size(); i > 1; --i) {
      std::swap(classes[i - 1], classes[rng->NextUint(i)]);
    }
    // Variants take turns within a round, so every round holds the same
    // statements; only their order is seeded.
    std::map<std::string, std::size_t> used;
    std::vector<Statement> out;
    for (const char* cls : classes) {
      const auto& list = variants_.at(cls);
      out.push_back(list[used[cls]++ % list.size()]);
    }
    return out;
  }

  /// Every variant once, in a seeded order.
  std::vector<Statement> ReplaySample(std::uint64_t seed) const override {
    Rng rng(Mix(seed, 41));
    std::vector<Statement> out = ReferenceStatements();
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[rng.NextUint(i)]);
    }
    return out;
  }

  double TailQuantile() const override { return 0.90; }

 private:
  Statement Cohort(std::int64_t a, std::int64_t b) {
    return SqlStatement(
        "rf_cohort",
        "SELECT gender, COUNT(*) AS n, AVG(p) AS avg_p FROM "
        "PREDICT(MODEL='rf', DATA=patients) WITH(p float) WHERE id "
        ">= " + std::to_string(a) + " AND id < " + std::to_string(b) +
            " GROUP BY gender",
        "rf", a, b);
  }
  Statement MlpFull() {
    return SqlStatement(
        "mlp_full",
        "SELECT gender, COUNT(*) AS n, AVG(p) AS avg_p FROM "
        "PREDICT(MODEL='mlp', DATA=patients) WITH(p float) GROUP BY "
        "gender",
        "mlp", 0, patients_);
  }
  Statement LrFilter(double distance) {
    return SqlStatement(
        "lr_filter",
        "SELECT airline, COUNT(*) AS n, AVG(p) AS avg_p FROM "
        "PREDICT(MODEL='delay', DATA=flights) WITH(p float) WHERE "
        "distance > " + std::to_string(static_cast<int>(distance)) +
            " GROUP BY airline",
        "", 0, 0);
  }
  Statement HicardGroup() {
    return SqlStatement(
        "hicard_group",
        "SELECT origin, dest, dep_hour, COUNT(*) AS n, AVG(distance) "
        "AS avg_d FROM flights GROUP BY origin, dest, dep_hour",
        "", 0, 0);
  }
  Statement TopK(double age) {
    return SqlStatement(
        "topk",
        "SELECT id, p FROM PREDICT(MODEL='mlp', DATA=patients) "
        "WITH(p float) WHERE age > " +
            std::to_string(static_cast<int>(age)) +
            " ORDER BY p DESC LIMIT 50",
        "mlp", 0, patients_);
  }

  std::int64_t patients_;
  std::map<std::string, std::vector<Statement>> variants_;
};

// -- disk_refresh -----------------------------------------------------------

class DiskRefresh final : public Workload {
 public:
  DiskRefresh(std::int64_t rows, std::uint64_t seed) {
    Rng rng(Mix(seed, 30));
    const std::int64_t lo = std::min<std::int64_t>(2000, rows / 4);
    const std::int64_t hi = std::min<std::int64_t>(50000, rows / 2);
    // Range lengths are evenly spaced over [lo, hi] for every seed; the
    // seed places them.
    for (int v = 0; v < 16; ++v) {
      const std::int64_t len = lo + (hi - lo) * v / 15;
      const std::int64_t a = rng.UniformInt(0, rows - len);
      ranges_.push_back(Range(a, a + len));
    }
    for (double bp : {165.0, 168.0, 171.0, 174.0}) {
      filters_.push_back(SqlStatement(
          "noskip_filter",
          "SELECT gender, COUNT(*) AS n, AVG(p) AS avg_p FROM "
          "PREDICT(MODEL='mlp', DATA=patients) WITH(p float) WHERE bp > " +
              std::to_string(static_cast<int>(bp)) + " GROUP BY gender",
          "mlp", 0, rows));
    }
    full_.push_back(SqlStatement(
        "full_agg",
        "SELECT gender, COUNT(*) AS n, AVG(bp) AS avg_bp, MAX(age) AS "
        "max_age, MIN(glucose) AS min_glucose FROM patients GROUP BY gender",
        "", 0, rows));
    full_.push_back(SqlStatement(
        "full_agg",
        "SELECT pregnant, COUNT(*) AS n, AVG(weight) AS avg_w FROM patients "
        "GROUP BY pregnant",
        "", 0, rows));
  }

  std::vector<Statement> ReferenceStatements() const override {
    std::vector<Statement> out = ranges_;
    out.insert(out.end(), filters_.begin(), filters_.end());
    out.insert(out.end(), full_.begin(), full_.end());
    return out;
  }

  std::vector<Statement> ColdStatements() const override {
    return {ranges_.front(), filters_.front(), full_.front()};
  }

  /// 70% zone-map-skipping ranges, 15% no-skip filters, 15% full scans.
  std::vector<Statement> Round(Rng* rng) const override {
    const double u = rng->NextDouble();
    const auto& list = u < 0.70 ? ranges_ : u < 0.85 ? filters_ : full_;
    return {list[rng->NextUint(list.size())]};
  }

  std::vector<Statement> ReplaySample(std::uint64_t seed) const override {
    Rng rng(Mix(seed, 42));
    std::vector<Statement> out;
    for (int i = 0; i < 24; ++i) out.push_back(Round(&rng).front());
    return out;
  }

  double TailQuantile() const override { return 0.99; }

 private:
  Statement Range(std::int64_t a, std::int64_t b) {
    return SqlStatement(
        "range",
        "SELECT gender, COUNT(*) AS n, AVG(p) AS avg_p FROM "
        "PREDICT(MODEL='mlp', DATA=patients) WITH(p float) WHERE id "
        ">= " + std::to_string(a) + " AND id < " + std::to_string(b) +
            " GROUP BY gender",
        "mlp", a, b);
  }

  std::vector<Statement> ranges_;
  std::vector<Statement> filters_;
  std::vector<Statement> full_;
};

std::unique_ptr<Workload> MakeWorkload(const Args& args, const Inputs& in) {
  if (args.workload == "point_serve") {
    return std::make_unique<PointServe>(in.sizes.patients, in.sizes.flights,
                                        args.seed);
  }
  if (args.workload == "batch_score") {
    return std::make_unique<BatchScore>(in.sizes.patients, args.seed);
  }
  return std::make_unique<DiskRefresh>(in.sizes.disk_patients, args.seed);
}

// ---------------------------------------------------------------------------
// Reference answers (dop 1, in-process, before any server starts)
// ---------------------------------------------------------------------------

raven::RavenOptions ContextOptions(std::int64_t dop) {
  raven::RavenOptions options;
  options.execution.parallelism = dop;
  options.session_cache_capacity = kSessionCache;
  return options;
}

void RegisterInputs(raven::RavenContext* ctx, const Inputs& in) {
  if (in.patients.num_rows() > 0) {
    MustOk(ctx->RegisterTable("patients", in.patients), "register patients");
  }
  if (in.flights.num_rows() > 0) {
    MustOk(ctx->RegisterTable("flights", in.flights), "register flights");
  }
}

/// Turns a `SELECT id, p` PREDICT result into per-id point answers.
void AddPointAnswers(ReferenceBook* refs, const std::string& model,
                     const Table& result) {
  const auto* id = Must(result.GetColumn("id"), "id column");
  const auto* p = Must(result.GetColumn("p"), "p column");
  std::map<std::int64_t, double> scores;
  for (std::size_t r = 0; r < id->data.size(); ++r) {
    scores[static_cast<std::int64_t>(id->data[r])] = p->data[r];
  }
  refs->SetPointScores(model, std::move(scores));
}

void BuildReferences(const Inputs& in, const Workload& workload,
                     ReferenceBook* refs,
                     std::map<std::string, std::string>* probe_v1,
                     std::map<std::string, std::string>* probe_v2) {
  raven::RavenContext ctx(ContextOptions(1));
  RegisterInputs(&ctx, in);
  if (in.disk_source.num_rows() > 0) {
    // The reference scans the same rows from memory: an independent path
    // to the disk scan the server runs.
    MustOk(ctx.RegisterTable("patients", in.disk_source), "register ref");
  }
  for (const auto& m : in.models) {
    MustOk(ctx.InsertModel(m.name, m.script, m.pipeline), "ref insert");
  }
  for (const auto& st : workload.ReferenceStatements()) {
    auto result = Must(ctx.Query(st.sql), "reference " + st.sql);
    refs->Add(st.ref_key, SerializeTable(result.table));
  }
  if (const auto* point = dynamic_cast<const PointServe*>(&workload)) {
    for (const char* model : PointServe::kModels) {
      auto pool = Must(ctx.Query(point->PoolSql(model)),
                       std::string("reference pool PREDICT ") + model);
      AddPointAnswers(refs, model, pool.table);
    }
  }
  // Refresh probes: point rf lookups under both versions.
  auto probe = [&](std::map<std::string, std::string>* out) {
    for (std::int64_t id : in.probe_ids) {
      auto result = Must(ctx.Query(PointSql("rf", "patients", id)),
                         "reference rf probe");
      (*out)[PointKey("rf", id)] = SerializeTable(result.table);
    }
  };
  probe(probe_v1);
  MustOk(ctx.UpdateModel("rf", in.rf_alt.script, in.rf_alt.pipeline),
         "ref update rf");
  probe(probe_v2);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<raven::RavenContext> ctx;
  std::unique_ptr<raven::server::QueryServer> server;
  std::shared_ptr<raven::storage::DiskTable> disk;
  std::string rvc_path;
};

void Teardown(Deployment* d) {
  if (d->server) d->server->Stop();
  d->server.reset();
  d->ctx.reset();
  d->disk.reset();
  if (!d->rvc_path.empty()) ::unlink(d->rvc_path.c_str());
}

/// The program's set-up calls, timed as one unit: table registration (and
/// .rvc write + open), model inserts, server start, and the first (cold)
/// execution of every statement shape.
Deployment Deploy(const Inputs& in, const Workload& workload,
                  const std::string& socket, const std::string& rvc_path,
                  const ReferenceBook& refs, Tally* tally, double* seconds) {
  const auto start = Clock::now();
  Deployment d;
  d.ctx = std::make_unique<raven::RavenContext>(ContextOptions(kServeDop));
  RegisterInputs(d.ctx.get(), in);
  if (in.disk_source.num_rows() > 0) {
    raven::storage::RvcWriteOptions write;
    write.block_rows = in.sizes.block_rows;
    MustOk(raven::storage::WriteRvc(in.disk_source, rvc_path, write),
           "WriteRvc");
    d.rvc_path = rvc_path;
    d.disk = Must(raven::storage::DiskTable::Open(rvc_path), "open rvc");
    MustOk(d.ctx->RegisterDiskTable("patients", d.disk), "register disk");
  }
  for (const auto& m : in.models) {
    MustOk(d.ctx->InsertModel(m.name, m.script, m.pipeline), "insert model");
  }
  d.server = std::make_unique<raven::server::QueryServer>(
      d.ctx.get(), ServeDefaults(socket));
  MustOk(d.server->Start(), "server start");
  raven::server::ServerClient client;
  MustOk(client.ConnectUnix(socket), "connect");
  for (const auto& prep : workload.Prepares()) {
    auto r = Must(client.Query(prep), "prepare");
    MustOk(raven::server::ResponseStatus(r), "prepare");
  }
  for (const auto& st : workload.ColdStatements()) {
    tally->Add(Send(&client, st, refs));
  }
  client.Close();
  *seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return d;
}

// ---------------------------------------------------------------------------
// Timed phases
// ---------------------------------------------------------------------------

std::unique_ptr<raven::server::ServerClient> Connect(
    const std::string& socket, const Workload& workload) {
  auto client = std::make_unique<raven::server::ServerClient>();
  MustOk(client->ConnectUnix(socket), "connect");
  for (const auto& prep : workload.Prepares()) {
    auto r = Must(client->Query(prep), "prepare");
    MustOk(raven::server::ResponseStatus(r), "prepare");
  }
  return client;
}

/// Closed loop: `conns` clients, each sending its next statement as soon as
/// the previous one answers, for `seconds`.
PhaseSamples ClosedLoop(const std::string& socket, const Workload& workload,
                        const ReferenceBook& refs, int conns, double seconds,
                        std::uint64_t seed, std::uint64_t salt) {
  std::vector<PhaseSamples> per(static_cast<std::size_t>(conns));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      auto client = Connect(socket, workload);
      Rng rng(Mix(seed, salt + static_cast<std::uint64_t>(c)));
      std::vector<Statement> round;
      std::size_t next = 0;
      auto round_start = Clock::now();
      auto& mine = per[static_cast<std::size_t>(c)];
      while (Clock::now() < deadline) {
        if (next == round.size()) {
          const auto now = Clock::now();
          if (round.size() > 1) {
            mine.round_qps.push_back(static_cast<double>(round.size()) /
                                     (MicrosBetween(round_start, now) / 1e6));
          }
          round = workload.Round(&rng);
          next = 0;
          round_start = now;
        }
        const Statement& st = round[next++];
        Outcome o = Send(client.get(), st, refs);
        mine.Add(o, o.roundtrip_us / 1e3, st.cls);
        mine.done_s.push_back(MicrosBetween(start, Clock::now()) / 1e6);
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseSamples all;
  for (const auto& p : per) all.Merge(p);
  all.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return all;
}

/// Closed-loop throughput as the median over the phase's whole 1-second
/// windows (batch_score: over its rounds, which all hold the same work), so
/// a short stall elsewhere on the machine moves it less than a plain mean.
double ClosedLoopQps(const PhaseSamples& phase, std::int64_t* windows) {
  if (!phase.round_qps.empty()) {
    *windows = static_cast<std::int64_t>(phase.round_qps.size());
    return Median(phase.round_qps);
  }
  std::vector<double> counts(static_cast<std::size_t>(phase.wall_s), 0.0);
  for (double t : phase.done_s) {
    const auto w = static_cast<std::size_t>(t);
    if (w < counts.size()) counts[w] += 1.0;
  }
  *windows = static_cast<std::int64_t>(counts.size());
  if (counts.empty()) return static_cast<double>(phase.tables) / phase.wall_s;
  return Median(counts);
}

/// Open loop: `conns` clients, each with its own seeded Poisson arrival
/// schedule at rate/conns. Latency runs from the scheduled send time, so a
/// stall is charged to every request it delays.
PhaseSamples OpenLoop(const std::string& socket, const Workload& workload,
                      const ReferenceBook& refs, int conns, double rate,
                      double seconds, std::uint64_t seed) {
  std::vector<PhaseSamples> per(static_cast<std::size_t>(conns));
  std::vector<std::unique_ptr<raven::server::ServerClient>> clients;
  clients.reserve(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) clients.push_back(Connect(socket, workload));
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(Mix(seed, 100 + static_cast<std::uint64_t>(c)));
      raven::server::ServerClient* client =
          clients[static_cast<std::size_t>(c)].get();
      auto& mine = per[static_cast<std::size_t>(c)];
      const double stream_rate = rate / conns;
      double t = 0.0;
      while (true) {
        t += -std::log(1.0 - rng.NextDouble()) / stream_rate;
        if (t >= seconds) break;
        const Statement st = workload.Round(&rng).front();
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(t));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        Outcome o = Send(client, st, refs);
        const auto done = Clock::now();
        mine.Add(o, MicrosBetween(due, done) / 1e3, st.cls);
        mine.late_ms.push_back(MicrosBetween(due, sent) / 1e3);
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseSamples all;
  for (const auto& p : per) all.Merge(p);
  all.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return all;
}

/// Swaps `rf` to the other version and times the first point rf PREDICT on
/// the new version, from UpdateModel returning to the answer.
struct Refresher {
  const Inputs* in;
  ReferenceBook* refs;
  const std::map<std::string, std::string>* v1;
  const std::map<std::string, std::string>* v2;
  bool on_v2 = false;
  std::int64_t probe = 0;
  std::vector<double> refresh_ms[2];  // by the version swapped in
  Tally tally;

  /// The mean of the two versions' medians. The versions differ in cost,
  /// and a median over both would sit on the edge between their clusters.
  double Metric() const {
    return (Median(refresh_ms[0]) + Median(refresh_ms[1])) / 2.0;
  }
  std::int64_t samples() const {
    return static_cast<std::int64_t>(refresh_ms[0].size() +
                                     refresh_ms[1].size());
  }

  void Once(raven::RavenContext* ctx, raven::server::ServerClient* client) {
    on_v2 = !on_v2;
    const Model& next = on_v2 ? in->rf_alt : FindModel(*in, "rf");
    const std::int64_t id =
        in->probe_ids[static_cast<std::size_t>(probe++) % in->probe_ids.size()];
    Statement st;
    st.cls = "refresh";
    st.sql = PointSql("rf", "patients", id);
    st.ref_key = "refresh:" + std::to_string(id);
    refs->Set(st.ref_key, {(on_v2 ? *v2 : *v1).at(PointKey("rf", id))});
    MustOk(ctx->UpdateModel("rf", next.script, next.pipeline), "UpdateModel");
    const auto start = Clock::now();
    Outcome o = Send(client, st, *refs);
    refresh_ms[on_v2 ? 1 : 0].push_back(MicrosBetween(start, Clock::now()) /
                                        1e3);
    tally.Add(o);
  }
};

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t stmt = -1;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  bool derived = false;  // from ExecutionStats, not a timed call
};

/// In-memory span sink; a null Tracer* records nothing.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  std::int64_t Begin(const std::string& name, std::int64_t parent,
                     std::int64_t stmt) {
    Span s;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = parent;
    s.stmt = stmt;
    s.name = name;
    s.start_us = MicrosBetween(origin_, Clock::now());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_us =
        MicrosBetween(origin_, Clock::now());
  }
  void Derived(const std::string& name, std::int64_t parent, std::int64_t stmt,
               double start_us, double dur_us) {
    Span s;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = parent;
    s.stmt = stmt;
    s.name = name;
    s.start_us = start_us;
    s.end_us = start_us + dur_us;
    s.derived = true;
    spans_.push_back(std::move(s));
  }
  const Span& at(std::int64_t id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span when tracing and closes it at scope exit.
class Scoped {
 public:
  Scoped(Tracer* t, const std::string& name, std::int64_t parent,
         std::int64_t stmt)
      : t_(t), id_(t != nullptr ? t->Begin(name, parent, stmt) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int64_t id_;
};

/// Per-layer sums over the replayed statements.
struct LayerAcc {
  std::int64_t statements = 0;
  std::int64_t planned = 0;  // statements that ran Analyze + Optimize
  double analyze_us = 0, optimize_us = 0, rules_fired = 0;
  double execute_us = 0, partitions = 0, morsels = 0, fused_chains = 0;
  double scan_us = 0, group_by_us = 0, sort_us = 0, rows_scanned = 0,
         rows_out = 0;
  double nn_predict_us = 0, nn_rows = 0, nn_calls = 0;
  std::vector<double> session_build_us;
  std::int64_t run_single_calls = 0;
  std::map<std::string, double> op_us;
  double blocks_scanned = 0, blocks_skipped = 0;
  std::vector<double> read_block_us;
  double encode_us = 0, result_bytes = 0;
  Tally tally;
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Per-operator self time: inclusive busy time (Open + Next, summed over
/// workers) minus that of the nearest instrumented IR descendants.
std::vector<std::pair<std::string, double>> OperatorSelfMicros(
    const raven::ir::IrNode& root,
    const raven::runtime::ExecutionStats& stats) {
  std::map<const void*, double> inclusive;
  for (const auto& op : stats.operators) {
    inclusive[op.node] += op.wall_micros + op.open_micros;
  }
  std::function<double(const raven::ir::IrNode&)> below =
      [&](const raven::ir::IrNode& node) {
        double sum = 0.0;
        for (const auto& child : node.children) {
          auto it = inclusive.find(child.get());
          sum += it != inclusive.end() ? it->second : below(*child);
        }
        return sum;
      };
  std::map<const void*, const raven::ir::IrNode*> nodes;
  std::function<void(const raven::ir::IrNode&)> index =
      [&](const raven::ir::IrNode& node) {
        nodes[&node] = &node;
        for (const auto& child : node.children) index(*child);
      };
  index(root);
  std::vector<std::pair<std::string, double>> out;
  std::set<const void*> seen;
  for (const auto& op : stats.operators) {
    double self = op.wall_micros + op.open_micros;
    auto it = nodes.find(op.node);
    if (it != nodes.end() && seen.insert(op.node).second) {
      self -= below(*it->second);
    }
    out.emplace_back(op.op, std::max(0.0, self));
  }
  return out;
}

struct ReplayEnv {
  raven::RavenContext* ctx = nullptr;
  const Inputs* in = nullptr;
  const ReferenceBook* refs = nullptr;
  std::shared_ptr<const raven::relational::BlockTable> disk;
  const Table* TableForModel(const std::string& model) const {
    return model == "delay" ? &in->flights
           : in->disk_source.num_rows() > 0 ? &in->disk_source
                                            : &in->patients;
  }
};

/// Plans `sql` the way the server's uncached path does.
raven::ir::IrPlan Plan(const ReplayEnv& env, const std::string& sql,
                       Tracer* tr, std::int64_t parent, std::int64_t stmt,
                       LayerAcc* acc) {
  raven::ir::IrPlan plan;
  {
    Scoped span(tr, "frontend.analyze", parent, stmt);
    const auto t0 = Clock::now();
    plan = Must(env.ctx->analyzer().Analyze(sql), "replay analyze");
    acc->analyze_us += MicrosBetween(t0, Clock::now());
  }
  {
    Scoped span(tr, "optimizer.optimize", parent, stmt);
    raven::optimizer::OptimizationReport report;
    auto& opts = env.ctx->optimizer_options();
    opts.target_parallelism = kServeDop;
    opts.target_distributed_workers = 0;
    const auto t0 = Clock::now();
    MustOk(env.ctx->cross_optimizer().Optimize(&plan, &report),
           "replay optimize");
    acc->optimize_us += MicrosBetween(t0, Clock::now());
    acc->rules_fired += static_cast<double>(report.TotalApplications());
  }
  ++acc->planned;
  return plan;
}

/// One replay pass over `sample`. With a Tracer, every call records a span;
/// without one, the identical calls run untimed by spans (the baseline the
/// tracing overhead is measured against).
void ReplayPass(const ReplayEnv& env, const std::vector<Statement>& sample,
                Tracer* tr, LayerAcc* acc) {
  raven::runtime::ExecutionOptions exec;
  exec.parallelism = kServeDop;
  // Prepared templates: planned once per pass, like PREPARE.
  std::map<std::string, raven::ir::IrPlan> templates;
  for (const auto& st : sample) {
    if (st.prepared.empty() || templates.count(st.prepared) != 0) continue;
    Scoped root(tr, "statement.prepare", -1, -1);
    std::string text = st.sql.substr(0, st.sql.rfind("= ")) + "= ?";
    templates.emplace(st.prepared, Plan(env, text, tr, root.id(), -1, acc));
  }
  // Direct NNRT session builds, one per model the sample scores.
  std::map<std::string, std::unique_ptr<raven::nnrt::InferenceSession>>
      sessions;
  raven::nnrt::OpProfiler profiler;
  for (const auto& st : sample) {
    if (st.model.empty() || sessions.count(st.model) != 0) continue;
    const raven::ml::ModelPipeline& pipeline =
        FindModel(*env.in, st.model).pipeline;
    auto graph = Must(raven::optimizer::PipelineToNnGraph(pipeline),
                      "graph for " + st.model);
    raven::nnrt::SessionOptions options;
    options.profiler = &profiler;
    Scoped span(tr, "nnrt.session_build", -1, -1);
    const auto t0 = Clock::now();
    sessions[st.model] = Must(
        raven::nnrt::InferenceSession::Create(std::move(graph), options),
        "session create");
    acc->session_build_us.push_back(MicrosBetween(t0, Clock::now()));
  }

  std::int64_t stmt_id = 0;
  for (const auto& st : sample) {
    const std::int64_t sid = stmt_id++;
    ++acc->statements;
    Table result;
    raven::runtime::ExecutionStats stats;
    raven::ir::IrPlan plan;
    {
      Scoped root(tr, "statement", -1, sid);
      if (st.prepared.empty()) {
        plan = Plan(env, st.sql, tr, root.id(), sid, acc);
      } else {
        Scoped span(tr, "server.bind", root.id(), sid);
        plan = raven::ir::IrPlan(Must(
            raven::ir::BindPlanParameters(*templates.at(st.prepared).root(),
                                          st.params),
            "bind"));
      }
      {
        Scoped span(tr, "runtime.execute", root.id(), sid);
        const auto t0 = Clock::now();
        result = Must(env.ctx->executor().Execute(plan, exec, &stats),
                      "replay execute");
        const double us = MicrosBetween(t0, Clock::now());
        acc->execute_us += us;
        if (tr != nullptr) {
          // Attribute the execute interval from the program's own counters:
          // relational operator self time and NNRT time, each divided by
          // the workers that ran in parallel.
          const double workers = static_cast<double>(
              std::max<std::int64_t>(1, stats.partitions_used));
          double at = tr->at(span.id()).start_us;
          double predict_ops = 0.0;
          for (const auto& [op, self] :
               OperatorSelfMicros(*plan.root(), stats)) {
            if (StartsWith(op, "Predict(") || op.find("Predict(") !=
                                                     std::string::npos) {
              predict_ops += self;
              continue;
            }
            const double dur = self / workers;
            tr->Derived("relational." + op, span.id(), sid, at, dur);
            at += dur;
          }
          const double nn = stats.nn_wall_micros / workers;
          tr->Derived("nnrt.predict", span.id(), sid, at, nn);
          at += nn;
          const double rest = std::max(0.0, predict_ops / workers - nn);
          tr->Derived("relational.Predict", span.id(), sid, at, rest);
        }
      }
      {
        Scoped span(tr, "server.encode", root.id(), sid);
        const auto t0 = Clock::now();
        ServerResponse response;
        response.kind = ServerResponseKind::kTable;
        response.table = result;
        const std::string frame = raven::server::EncodeServerResponse(response);
        acc->encode_us += MicrosBetween(t0, Clock::now());
        acc->result_bytes += static_cast<double>(frame.size());
      }
    }
    Outcome o;
    o.ok = env.refs->Matches(st.ref_key, result);
    o.wrong = !o.ok;
    acc->tally.Add(o);

    acc->partitions += static_cast<double>(stats.partitions_used);
    acc->morsels += static_cast<double>(stats.morsels);
    acc->fused_chains += static_cast<double>(stats.fused_chains);
    acc->blocks_scanned += static_cast<double>(stats.blocks_scanned);
    acc->blocks_skipped += static_cast<double>(stats.blocks_skipped);
    acc->rows_out += static_cast<double>(std::max<std::int64_t>(
        1, result.num_rows()));
    acc->nn_predict_us += stats.nn_wall_micros;
    acc->nn_calls += static_cast<double>(stats.predict_batches);
    for (const auto& op : stats.operators) {
      const double busy = op.wall_micros + op.open_micros;
      if (StartsWith(op.op, "Scan(") || StartsWith(op.op, "DiskScan(")) {
        acc->scan_us += busy;
        acc->rows_scanned += static_cast<double>(op.rows);
      } else if (op.op == "GroupBy") {
        acc->group_by_us += busy;
      } else if (op.op == "Sort") {
        acc->sort_us += busy;
      }
      if (op.op.find("Predict(") != std::string::npos &&
          stats.predict_batches > 0) {
        acc->nn_rows += static_cast<double>(op.rows);
      }
    }

    // Direct probes of the layers the statement touches.
    if (!st.model.empty() && sessions.count(st.model) != 0) {
      const Table* table = env.TableForModel(st.model);
      const std::int64_t end = std::min(st.row_end, st.row_begin + 8192);
      const raven::ml::ModelPipeline& pipeline =
          FindModel(*env.in, st.model).pipeline;
      auto x = Must(table->SliceRows(st.row_begin, end)
                        .ToTensor(pipeline.input_columns),
                    "probe tensor");
      raven::nnrt::RunStats run;
      Scoped span(tr, "nnrt.run_single", -1, sid);
      Must(sessions[st.model]->RunSingle(x, &run), "RunSingle");
      ++acc->run_single_calls;
      for (const auto& op : run.per_op) {
        acc->op_us[op.op_type] += op.wall_micros;
      }
    }
    if (env.disk != nullptr) {
      const std::int64_t rows_per_block = env.disk->block_rows();
      std::int64_t first = st.row_begin / rows_per_block;
      std::int64_t last = (std::max(st.row_end, st.row_begin + 1) - 1) /
                          rows_per_block;
      last = std::min({last, first + 15, env.disk->num_blocks() - 1});
      for (std::int64_t b = first; b <= last; ++b) {
        raven::relational::DataChunk chunk;
        Scoped span(tr, "storage.read_block", -1, sid);
        const auto t0 = Clock::now();
        MustOk(env.disk->ReadBlock(b, &chunk), "ReadBlock");
        acc->read_block_us.push_back(MicrosBetween(t0, Clock::now()));
      }
    }
  }
}

/// Self time per span: duration minus the time its children cover.
std::map<std::string, double> LayerSelfMicros(const Tracer& tr,
                                              double* unattributed) {
  std::vector<double> child_sum(tr.spans().size(), 0.0);
  for (const auto& s : tr.spans()) {
    if (s.parent >= 0) {
      child_sum[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  *unattributed = 0.0;
  for (const auto& s : tr.spans()) {
    const double covered = child_sum[static_cast<std::size_t>(s.id)];
    const double own = std::max(0.0, (s.end_us - s.start_us) - covered);
    const std::size_t dot = s.name.find('.');
    const std::string layer = s.name.substr(0, dot);
    if (layer == "statement") {
      *unattributed += own;
    } else {
      self[layer] += own;
    }
  }
  return self;
}

void WriteSpans(const std::string& path, const Tracer& tr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (const auto& s : tr.spans()) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"stmt\":%lld,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"derived\":%s}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.stmt), JsonEscape(s.name).c_str(),
                 s.start_us, s.end_us, s.derived ? "true" : "false");
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    if (i > 0) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + Num(m.value) + ",\"unit\":\"" +
           m.unit + "\",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const auto run_start = Clock::now();
  auto phase = [&](const char* name) {
    std::fprintf(stderr,
                 "raven_perfbench: %-10s done at %.2f s, peak rss %.0f MB\n",
                 name, MicrosBetween(run_start, Clock::now()) / 1e6,
                 PeakRssMb());
  };
  const std::string tag = args.workload + "_s" + std::to_string(args.seed);
  const std::string socket = args.work_dir + "/" + tag + ".sock";

  // -- Inputs and references (the benchmark's own work, untimed) ----------
  Inputs in = MakeInputs(args);
  std::unique_ptr<Workload> workload = MakeWorkload(args, in);
  phase("inputs");
  std::map<std::string, std::string> probe_v1, probe_v2;
  ReferenceBook refs;
  BuildReferences(in, *workload, &refs, &probe_v1, &probe_v2);
  phase("reference");
  if (args.corrupt_reference) {
    refs.Corrupt();
    for (auto* probes : {&probe_v1, &probe_v2}) {
      for (auto& [key, bytes] : *probes) bytes[bytes.size() - 1] ^= 0x01;
    }
  }

  // -- Set-up, repeated; the median is setup_s -----------------------------
  // Set-up repeats at least 5 times and until it has taken 1 s in all (at
  // most 15 times), so that a set-up of a few milliseconds still gets a
  // steady median. The last deployment serves the timed phase.
  constexpr int kMinSetups = 5;
  constexpr int kMaxSetups = 15;
  constexpr double kMinSetupSeconds = 1.0;
  std::vector<double> setup_s;
  Tally setup_tally;
  Deployment live;
  double setup_spent = 0.0;
  for (int r = 0;; ++r) {
    double seconds = 0.0;
    const std::string rvc = args.work_dir + "/" + tag + "_" +
                            std::to_string(r) + ".rvc";
    Deployment d =
        Deploy(in, *workload, socket, rvc, refs, &setup_tally, &seconds);
    setup_s.push_back(seconds);
    setup_spent += seconds;
    if (r + 1 >= kMaxSetups ||
        (r + 1 >= kMinSetups && setup_spent >= kMinSetupSeconds)) {
      live = std::move(d);
      break;
    }
    Teardown(&d);
  }
  phase("setup");
  raven::RavenContext* ctx = live.ctx.get();
  raven::server::QueryServer* server = live.server.get();

  // -- Timed phase (untraced) ---------------------------------------------
  const auto nn_before = ctx->session_cache().stats();
  PhaseSamples timed;     // closed loop: every end-to-end metric
  PhaseSamples arrivals;  // point_serve's open loop: the loadgen.* metrics
  Refresher refresher{&in, &refs, &probe_v1, &probe_v2};
  std::int64_t qps_windows = 0;
  double offered_rate = 0.0;
  if (args.workload == "point_serve") {
    // The closed loop on 4 connections gives the end-to-end numbers. The
    // open loop at a fixed offered rate follows. Its latencies, timed from
    // the scheduled send, queue behind every stall of a shared machine and
    // varied several-fold between runs of the same code, so they are
    // reported per layer (loadgen.*) rather than bounded.
    timed = ClosedLoop(socket, *workload, refs, 4, args.seconds * 0.6,
                       args.seed, 200);
    offered_rate = args.smoke ? 100.0 : 150.0;
    arrivals = OpenLoop(socket, *workload, refs, 4, offered_rate,
                        args.seconds * 0.4, args.seed);
  } else if (args.workload == "batch_score") {
    timed = ClosedLoop(socket, *workload, refs, 1, args.seconds, args.seed,
                       300);
  } else {
    // Two readers in a closed loop plus the refresher on its own
    // connection, swapping `rf` at a fixed interval.
    std::atomic<bool> stop{false};
    std::thread refresh_thread([&] {
      raven::server::ServerClient client;
      MustOk(client.ConnectUnix(socket), "connect refresher");
      const auto interval = std::chrono::milliseconds(250);
      auto next = Clock::now() + interval;
      while (!stop.load()) {
        std::this_thread::sleep_until(next);
        if (stop.load()) break;
        refresher.Once(ctx, &client);
        next += interval;
      }
    });
    timed = ClosedLoop(socket, *workload, refs, 2, args.seconds, args.seed,
                       400);
    stop.store(true);
    refresh_thread.join();
  }
  const double qps = ClosedLoopQps(timed, &qps_windows);
  if (args.workload != "disk_refresh") {
    // Refresh probe after the timed phase, on an otherwise idle server.
    raven::server::ServerClient client;
    MustOk(client.ConnectUnix(socket), "connect refresher");
    for (int i = 0; i < 32; ++i) refresher.Once(ctx, &client);
  }
  const auto nn_after = ctx->session_cache().stats();
  const auto server_stats = server->Snapshot();
  server->Stop();
  phase("timed");

  Tally tally = setup_tally;
  tally.Merge(timed.tally);
  tally.Merge(arrivals.tally);
  tally.Merge(refresher.tally);

  const double tail_q = workload->TailQuantile();
  const double late_p99 = Percentile(arrivals.late_ms, 0.99);
  // The generator fell behind when requests routinely went out late: the
  // offered rate was then not the rate the server saw.
  const bool loadgen_valid = late_p99 < 50.0;

  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", Median(setup_s), "s",
                 static_cast<std::int64_t>(setup_s.size())});
  e2e.push_back({"qps", qps, "1/s", qps_windows});
  const auto n_timed = static_cast<std::int64_t>(timed.latency_ms.size());
  e2e.push_back({"p50_ms", Median(timed.latency_ms), "ms", n_timed});
  e2e.push_back(
      {"tail_ms", Percentile(timed.latency_ms, tail_q), "ms", n_timed});
  e2e.push_back({"refresh_ms", refresher.Metric(), "ms", refresher.samples()});

  // -- Per-layer metrics from the timed phase ------------------------------
  std::vector<Metric> layer;
  auto add = [&](const std::string& name, double value, const char* unit,
                 std::int64_t samples) {
    layer.push_back({name, value, unit, samples});
  };
  const auto n_tables = timed.tables;
  add("server.roundtrip_us", Median(timed.roundtrip_us), "us", n_tables);
  add("server.engine_us", Median(timed.engine_us), "us", n_tables);
  add("server.edge_us", Median(timed.edge_us), "us", n_tables);
  add("server.queue_wait_us", Mean(timed.queue_wait_us), "us", n_tables);
  add("server.plan_cache_hit_ratio",
      n_tables > 0 ? static_cast<double>(timed.plan_cache_hits) /
                         static_cast<double>(n_tables)
                   : 0.0,
      "ratio", n_tables);
  const double nn_hits =
      static_cast<double>(nn_after.hits) - static_cast<double>(nn_before.hits);
  const double nn_misses = static_cast<double>(nn_after.misses) -
                           static_cast<double>(nn_before.misses);
  add("nnrt.session_hit_ratio",
      nn_hits + nn_misses > 0 ? nn_hits / (nn_hits + nn_misses) : 0.0, "ratio",
      static_cast<std::int64_t>(nn_hits + nn_misses));
  const auto n_arrivals = static_cast<std::int64_t>(arrivals.latency_ms.size());
  add("loadgen.open_p50_ms", Median(arrivals.latency_ms), "ms", n_arrivals);
  add("loadgen.open_p99_ms", Percentile(arrivals.latency_ms, 0.99), "ms",
      n_arrivals);
  add("loadgen.late_p99_ms", late_p99, "ms", n_arrivals);

  // -- Traced replay --------------------------------------------------------
  std::map<std::string, double> nn_op_us;  // every op type the probes saw
  if (args.trace) {
    ReplayEnv env;
    env.ctx = ctx;
    env.in = &in;
    env.refs = &refs;
    env.disk = live.disk;
    const std::vector<Statement> sample = workload->ReplaySample(args.seed);
    std::vector<double> untraced_s, traced_s;
    LayerAcc acc;
    std::unique_ptr<Tracer> kept;
    for (int pass = 0; pass < 4; ++pass) {
      const bool traced = pass % 2 == 1;
      LayerAcc pass_acc;
      auto tracer = std::make_unique<Tracer>(Clock::now());
      const auto t0 = Clock::now();
      ReplayPass(env, sample, traced ? tracer.get() : nullptr, &pass_acc);
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      (traced ? traced_s : untraced_s).push_back(s);
      tally.Merge(pass_acc.tally);
      if (pass == 3) {
        acc = std::move(pass_acc);
        kept = std::move(tracer);
      }
    }
    phase("replay");
    WriteSpans(args.work_dir + "/spans_" + tag + ".jsonl", *kept);
    double unattributed = 0.0;
    const auto self = LayerSelfMicros(*kept, &unattributed);
    const double n =
        static_cast<double>(std::max<std::int64_t>(1, acc.statements));
    const auto stmts = acc.statements;
    const double planned =
        static_cast<double>(std::max<std::int64_t>(1, acc.planned));
    add("frontend.analyze_us", acc.analyze_us / planned, "us", acc.planned);
    add("optimizer.optimize_us", acc.optimize_us / planned, "us", acc.planned);
    add("optimizer.rules_fired", acc.rules_fired / planned, "count",
        acc.planned);
    add("nnrt.session_build_us", Median(acc.session_build_us), "us",
        static_cast<std::int64_t>(acc.session_build_us.size()));
    add("nnrt.predict_us", acc.nn_predict_us / n, "us", stmts);
    add("nnrt.rows_per_call", acc.nn_calls > 0 ? acc.nn_rows / acc.nn_calls : 0,
        "rows", stmts);
    for (const auto& [op, us] : acc.op_us) {
      nn_op_us[op] = us / static_cast<double>(std::max<std::int64_t>(
                              1, acc.run_single_calls));
    }
    // Tree models lower to the GEMM encoding (MatMul / LessOrEqual / Equal),
    // the MLP to Gemm + Relu; the rest is featurization.
    for (const char* op : {"MatMul", "LessOrEqual", "Equal", "Gemm", "Relu",
                           "Sigmoid", "Scaler", "OneHot", "GatherColumns",
                           "Concat"}) {
      auto it = acc.op_us.find(op);
      add(std::string("nnrt.op_us.") + op,
          it == acc.op_us.end() || acc.run_single_calls == 0
              ? 0.0
              : it->second / static_cast<double>(acc.run_single_calls),
          "us", acc.run_single_calls);
    }
    add("relational.scan_us", acc.scan_us / n, "us", stmts);
    add("relational.rows_examined_per_row_out",
        acc.rows_out > 0 ? acc.rows_scanned / acc.rows_out : 0.0, "ratio",
        stmts);
    add("relational.group_by_us", acc.group_by_us / n, "us", stmts);
    add("relational.sort_us", acc.sort_us / n, "us", stmts);
    add("storage.read_block_us", Mean(acc.read_block_us), "us",
        static_cast<std::int64_t>(acc.read_block_us.size()));
    add("storage.blocks_scanned", acc.blocks_scanned / n, "count", stmts);
    add("storage.blocks_skipped", acc.blocks_skipped / n, "count", stmts);
    add("storage.skip_ratio",
        acc.blocks_scanned + acc.blocks_skipped > 0
            ? acc.blocks_skipped / (acc.blocks_scanned + acc.blocks_skipped)
            : 0.0,
        "ratio", stmts);
    add("runtime.execute_us", acc.execute_us / n, "us", stmts);
    add("runtime.partitions_used", acc.partitions / n, "count", stmts);
    add("runtime.morsels", acc.morsels / n, "count", stmts);
    add("runtime.fused_chains", acc.fused_chains / n, "count", stmts);
    add("server.encode_us", acc.encode_us / n, "us", stmts);
    add("server.result_bytes", acc.result_bytes / n, "bytes", stmts);
    for (const char* l : {"frontend", "optimizer", "runtime", "relational",
                          "storage", "nnrt", "server"}) {
      auto it = self.find(l);
      add(std::string(l) + ".self_us", it == self.end() ? 0.0 : it->second / n,
          "us", stmts);
    }
    const double u = std::min(untraced_s[0], untraced_s[1]);
    const double t = std::min(traced_s[0], traced_s[1]);
    add("trace.overhead_pct", u > 0 ? (t - u) / u * 100.0 : 0.0, "%", 2);
    add("trace.unattributed_us", unattributed / n, "us", stmts);
  }

  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  const double error_frac =
      static_cast<double>(tally.bad()) /
      static_cast<double>(std::max<std::int64_t>(1, tally.attempted));

  // -- Fingerprint + result line ------------------------------------------
  std::string out = "{";
  out += "\"workload\":\"" + args.workload + "\"";
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + Num(args.seconds);
  out += ",\"smoke\":" + std::string(args.smoke ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":\"" + JsonEscape(__VERSION__) + "\"";
  out += ",\"build_type\":\"" RAVEN_PERFBENCH_BUILD_TYPE "\"";
  out += ",\"tail_percentile\":" + Num(tail_q * 100.0);
  out += ",\"offered_rate\":" + Num(offered_rate);
  out += ",\"loadgen_valid\":" + std::string(loadgen_valid ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(tally.attempted);
  out += ",\"failed\":" + std::to_string(tally.failed);
  out += ",\"refused\":" + std::to_string(tally.refused);
  out += ",\"wrong\":" + std::to_string(tally.wrong);
  out += ",\"error_frac\":" + Num(error_frac);
  out += ",\"references\":" + std::to_string(refs.size());
  out += ",\"samples\":{\"timed\":" + std::to_string(n_timed) +
         ",\"open_loop\":" + std::to_string(n_arrivals) +
         ",\"refresh\":" + std::to_string(refresher.samples()) +
         ",\"setup\":" + std::to_string(setup_s.size()) + "}";
  out += ",\"server\":{\"queries_served\":" +
         std::to_string(server_stats.queries_served) +
         ",\"queries_shed\":" + std::to_string(server_stats.admission.shed) +
         ",\"blocks_scanned\":" + std::to_string(server_stats.blocks_scanned) +
         ",\"blocks_skipped\":" + std::to_string(server_stats.blocks_skipped) +
         "}";
  out += ",\"classes\":{";
  {
    double total_ms = 0.0;
    for (double v : timed.latency_ms) total_ms += v;
    bool first = true;
    for (const auto& [cls, v] : timed.class_ms) {
      double sum = 0.0;
      for (double x : v) sum += x;
      out += std::string(first ? "" : ",") + "\"" + cls + "\":{\"n\":" +
             std::to_string(v.size()) + ",\"p50_ms\":" + Num(Median(v)) +
             ",\"time_share\":" + Num(total_ms > 0 ? sum / total_ms : 0.0) +
             "}";
      first = false;
    }
  }
  out += "}";
  out += ",\"nn_op_us\":{";
  {
    bool first = true;
    for (const auto& [op, us] : nn_op_us) {
      out += std::string(first ? "" : ",") + "\"" + op + "\":" + Num(us);
      first = false;
    }
  }
  out += "}";
  out += ",\"end_to_end\":" + MetricsJson(e2e);
  out += ",\"per_layer\":" + MetricsJson(layer);
  out += "}";
  Teardown(&live);
  ::unlink(socket.c_str());
  std::printf("%s\n", out.c_str());
  return 0;
}
