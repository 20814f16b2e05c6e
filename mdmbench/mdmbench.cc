// mdmbench: the repository benchmark.
//
// A single-process, closed-loop load generator over the public
// mdm::Connection API. Every client waits for each reply before sending
// its next request (fig-1 clients are applications, not independent
// users), every call is timed from outside the library, and every
// result is checked against the corpus::TenantModel oracle. The
// program under test sees nothing but the generated DARMS (through
// corpus::LoadCorpus) and the QUEL text of each request.
//
// Workloads (mdmbench/README.md has the why of each):
//   fig1_mix         fig-1 mix, 4 Local clients, in-memory db
//   fig1_serial      the same mix, corpus and seed, one Local client
//   catalog_durable  librarian L1/L2 reads 4 : editor E2 batches 1, 2
//                    Remote clients against an in-process mdmd serving
//                    a journaled er::DurableDatabase (fsync on, group
//                    commit at the defaults); 2 clients, so they and
//                    their 2 server threads fit on 4 CPUs
//   catalog_memory   the same mix and clients against an mdmd serving an
//                    in-memory db: the wire and server without the WAL
//
// Usage:
//   mdmbench --workload W --seed N --seconds S --trace 0|1
//            [--scale full|tiny] [--tmp-dir DIR] [--trace-out FILE]
//            [--commit SHA] [--src-digest HEX]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that attributes time and work to the library's layers.
// Output: a human-readable table (every metric with its unit and
// sample count), then one JSON line with every metric of the mode.
// Exit status 1 on any error or oracle divergence.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "corpus/generator.h"
#include "corpus/loader.h"
#include "er/persist.h"
#include "net/connection.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "quel/planner.h"
#include "quel/quel.h"

#ifndef MDMBENCH_COMPILER
#define MDMBENCH_COMPILER "unknown"
#endif
#ifndef MDMBENCH_CXX_FLAGS
#define MDMBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using mdm::BatchResult;
using mdm::Connection;
using mdm::Result;
using mdm::Rng;
using mdm::StrFormat;
using mdm::corpus::TenantModel;
using mdm::quel::ResultSet;
using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workload definitions

enum Class { kEditor = 0, kAnalyzer, kTypesetter, kLibrarian, kClassCount };
const char* const kClassNames[kClassCount] = {"editor", "analyzer",
                                              "typesetter", "librarian"};

struct Scale {
  int scores;
  int64_t notes;
  /// Expected traced-phase rate (calls/s): sizes the fixed call count
  /// of the traced window so it lasts about --seconds. A constant, so
  /// the window — and every count measured over it — depends only on
  /// the command line.
  double traced_rate;
};

struct WorkloadConfig {
  const char* name;
  int clients;
  bool remote;   // clients talk to an in-process mdmd, else Local
  bool durable;  // the db is journaled (fsync on), else in-memory
  bool catalog_mix;  // L1/L2 4 : E2 1, else the fig-1 mix
  Scale full;
  Scale tiny;
};

const WorkloadConfig kWorkloads[] = {
    {"fig1_mix", 4, false, false, false, {40, 20'000, 90}, {8, 800, 2000}},
    {"fig1_serial", 1, false, false, false, {40, 20'000, 90},
     {8, 800, 2000}},
    {"catalog_durable", 2, true, true, true, {1000, 20'000, 12'000},
     {50, 1000, 5000}},
    {"catalog_memory", 2, true, false, true, {1000, 20'000, 20'000},
     {50, 1000, 5000}},
};

// Fig-1 mix weights: editor 2 : analyzer 3 : typesetter 3 : librarian 2.
const int kFig1Weights[kClassCount] = {2, 3, 3, 2};
// catalog_*: librarian reads 4 : editor E2 batches 1.
const int kCatalogWeights[kClassCount] = {1, 0, 0, 4};

/// The corpus is part of the workload definition and the same for every
/// run; --seed drives the per-tenant op streams.
constexpr uint64_t kCorpusSeed = 42;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 7;
/// Ops per tenant folded into the op-log digest. A fixed prefix of
/// every tenant's deterministic stream, so same-seed runs print the
/// same digest however long they ran.
constexpr int kDigestOps = 8;
/// At most this many requests (with their replies) per client are kept
/// from the traced window for the timed layer calls.
constexpr size_t kCapturesPerClient = 64;

// ---------------------------------------------------------------------
// Op-log digest (FNV-1a, the workload driver's scheme)

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}
void HashStr(uint64_t* h, const std::string& s) {
  HashBytes(h, s.data(), s.size());
  HashBytes(h, "|", 1);
}
void HashInt(uint64_t* h, int64_t v) { HashBytes(h, &v, sizeof(v)); }

uint64_t HashKeys(const std::vector<int>& keys) {
  uint64_t h = kFnvOffset;
  for (int k : keys) HashInt(&h, k);
  return h;
}

const char* const kDynamicMarks[] = {"pp", "p", "mp", "mf", "f", "ff"};

// ---------------------------------------------------------------------
// Run state

struct Tenant {
  const TenantModel* model = nullptr;
  int tenant = 0;
  Rng rng{1};
  uint64_t log_hash = kFnvOffset;
  int ops_done = 0;
  int appended_measures = 0;
  int annotations = 0;
  std::vector<int> rare_keys;  // keys occurring <= 2 times (A1)

  bool digesting() const { return ops_done < kDigestOps; }
};

/// One Connection call as the client saw it.
struct Call {
  const char* name;
  uint64_t end_ns;
  uint64_t ns;
  uint8_t cls;
  uint8_t phase;
  bool write;
  bool ok;
};

/// One of the benchmark's own spans, kept in memory and written out as
/// Chrome trace JSON at the end of a traced run.
struct BenchSpan {
  const char* name;
  uint32_t tid;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t id;
  uint64_t parent;  // 0 = root
};

/// A request and its reply, kept from the traced window so the layer
/// calls (parse, plan, encode, decode) run on the workload's real text.
struct Capture {
  std::vector<std::string> scripts;  // one unless batch
  bool batch = false;
  ResultSet reply;
  BatchResult batch_reply;
};

enum Phase : uint8_t { kWarmup = 0, kMeasure, kTraced };

struct Client {
  int id = 0;
  std::optional<Connection> conn;
  std::vector<Tenant*> tenants;
  size_t cursor = 0;

  uint8_t phase = kWarmup;
  bool tracing = false;
  size_t capture_stride = 0;  // 0 = capture nothing
  uint64_t phase_calls = 0;

  std::deque<Call> calls;  // chunked: no reallocation spikes in rss_mb
  std::vector<BenchSpan> spans;
  std::vector<Capture> captures;
  // Traced phase only:
  uint64_t rows_returned = 0;
  uint64_t scripts = 0;
  uint64_t write_user_bytes = 0;  // bytes of write scripts
  uint64_t divergences = 0;
  std::vector<std::string> divergence_msgs;
};

class Runner {
 public:
  Runner(const WorkloadConfig& cfg, const mdm::corpus::Corpus* corpus)
      : cfg_(cfg), corpus_(corpus) {}

  void RunOneOp(Client* c, Tenant* t) {
    const int* w = cfg_.catalog_mix ? kCatalogWeights : kFig1Weights;
    int total = w[0] + w[1] + w[2] + w[3];
    int pick = static_cast<int>(t->rng.Uniform(static_cast<uint64_t>(total)));
    int cls = 0;
    while (pick >= w[cls]) pick -= w[cls++];
    switch (cls) {
      case kEditor: EditorOp(c, t); break;
      case kAnalyzer: AnalyzerOp(c, t); break;
      case kTypesetter: TypesetterOp(c, t); break;
      default: LibrarianOp(c, t); break;
    }
    ++t->ops_done;
  }

 private:
  void Record(Client* c, Class cls, bool write, uint64_t t0, uint64_t t1,
              bool ok, const char* name) {
    c->calls.push_back(Call{name, t1, t1 - t0, static_cast<uint8_t>(cls),
                            c->phase, write, ok});
    ++c->phase_calls;
    if (c->tracing) {
      uint64_t id = (static_cast<uint64_t>(c->id) << 48) | c->spans.size();
      c->spans.push_back(BenchSpan{name, static_cast<uint32_t>(c->id), t0,
                                   t1 - t0, id + 1, 0});
    }
  }

  bool WantCapture(const Client& c) const {
    return c.capture_stride > 0 && c.captures.size() < kCapturesPerClient &&
           c.phase_calls % c.capture_stride == 0;
  }

  /// Marks the most recent call failed and logs why.
  void Check(Client* c, Tenant* t, bool ok, const std::string& what) {
    if (ok) return;
    if (!c->calls.empty()) c->calls.back().ok = false;
    ++c->divergences;
    if (c->divergence_msgs.size() < 16)
      c->divergence_msgs.push_back(StrFormat("t%d %s", t->tenant,
                                             what.c_str()));
  }

  ResultSet Read(Client* c, Tenant* t, Class cls, const char* name,
                 const std::string& script) {
    if (t->digesting()) HashStr(&t->log_hash, name);
    bool capture = WantCapture(*c);
    uint64_t t0 = NowNs();
    Result<ResultSet> rs = c->conn->Execute(script);
    uint64_t t1 = NowNs();
    Record(c, cls, false, t0, t1, rs.ok(), name);
    if (c->tracing) ++c->scripts;
    if (!rs.ok()) {
      Check(c, t, false,
            StrFormat("%s failed: %s", name, rs.status().message().c_str()));
      if (t->digesting()) {
        HashStr(&t->log_hash, "error");
        HashInt(&t->log_hash, static_cast<int64_t>(rs.status().code()));
      }
      return ResultSet{};
    }
    if (c->tracing) c->rows_returned += rs->rows.size();
    if (t->digesting()) {
      HashInt(&t->log_hash, static_cast<int64_t>(rs->affected));
      HashInt(&t->log_hash, static_cast<int64_t>(rs->rows.size()));
      for (const auto& row : rs->rows)
        for (const mdm::rel::Value& v : row)
          HashStr(&t->log_hash, v.ToString());
    }
    if (capture) {
      Capture cap;
      cap.scripts.push_back(script);
      cap.reply = *rs;
      c->captures.push_back(std::move(cap));
    }
    return *std::move(rs);
  }

  BatchResult Write(Client* c, Tenant* t, const char* name,
                    const std::vector<std::string>& scripts) {
    if (t->digesting()) HashStr(&t->log_hash, name);
    bool capture = WantCapture(*c);
    uint64_t t0 = NowNs();
    Result<BatchResult> br = c->conn->ExecuteBatch(scripts);
    uint64_t t1 = NowNs();
    Record(c, kEditor, true, t0, t1, br.ok() && br->all_ok(), name);
    if (c->tracing) {
      c->scripts += scripts.size();
      for (const std::string& s : scripts) c->write_user_bytes += s.size();
    }
    if (!br.ok()) {
      Check(c, t, false,
            StrFormat("%s failed: %s", name, br.status().message().c_str()));
      if (t->digesting()) {
        HashStr(&t->log_hash, "error");
        HashInt(&t->log_hash, static_cast<int64_t>(br.status().code()));
      }
      return BatchResult{};
    }
    if (!br->all_ok())
      Check(c, t, false,
            StrFormat("%s statement %d failed: %s", name,
                      static_cast<int>(br->failed_index()),
                      br->first_error().message().c_str()));
    if (c->tracing) c->rows_returned += br->last.rows.size();
    if (t->digesting()) {
      HashInt(&t->log_hash, static_cast<int64_t>(br->statements.size()));
      for (const mdm::BatchStatementOutcome& st : br->statements) {
        HashInt(&t->log_hash, static_cast<int64_t>(st.status.code()));
        HashInt(&t->log_hash, static_cast<int64_t>(st.affected));
      }
      HashInt(&t->log_hash, static_cast<int64_t>(br->last.rows.size()));
      for (const auto& row : br->last.rows)
        for (const mdm::rel::Value& v : row)
          HashStr(&t->log_hash, v.ToString());
    }
    if (capture) {
      Capture cap;
      cap.scripts = scripts;
      cap.batch = true;
      cap.batch_reply = *br;
      c->captures.push_back(std::move(cap));
    }
    return *std::move(br);
  }

  static uint64_t Affected(const BatchResult& br) {
    return br.statements.empty() ? 0 : br.statements[0].affected;
  }

  // --- editor: E1-E3, always one ExecuteBatch ------------------------

  void EditorE2(Client* c, Tenant* t) {
    BatchResult br = Write(
        c, t, "E2-annotate",
        {StrFormat("append to ANNOTATION (text = \"mark-%d-%d\", xpos = %d)",
                   t->tenant, t->annotations, t->tenant),
         StrFormat("range of a is ANNOTATION retrieve (c = count(a)) "
                   "where a.xpos = %d",
                   t->tenant)});
    uint64_t affected = Affected(br);
    int64_t expect = static_cast<int64_t>(t->annotations) + 1;
    int64_t got = br.last.rows.empty() ? -1 : br.last.At(0, 0).AsInt();
    Check(c, t, affected == 1 && got == expect,
          StrFormat("E2 affected %llu, count %lld != %lld",
                    (unsigned long long)affected, (long long)got,
                    (long long)expect));
    if (affected == 1) ++t->annotations;
  }

  void EditorOp(Client* c, Tenant* t) {
    if (cfg_.catalog_mix) return EditorE2(c, t);
    switch (t->rng.Uniform(3)) {
      case 0: {  // E1: append a measure at the end of the movement
        int number = t->model->measures + t->appended_measures + 1;
        BatchResult br = Write(
            c, t, "E1-append-measure",
            {StrFormat("range of v is MOVEMENT range of s is SCORE "
                       "append to MEASURE (number = %d, meter_num = 4, "
                       "meter_den = 4) under v in measure_in_movement "
                       "where v under s in movement_in_score and "
                       "s.title = \"%s\"",
                       number, t->model->title.c_str())});
        uint64_t affected = Affected(br);
        Check(c, t, affected == 1,
              StrFormat("E1 affected %llu != 1", (unsigned long long)affected));
        if (affected == 1) ++t->appended_measures;
        break;
      }
      case 1:
        EditorE2(c, t);
        break;
      default: {  // E3: set a dynamic mark on every note of one pitch
        int key = t->model->keys[t->rng.Uniform(t->model->keys.size())];
        const char* mark =
            kDynamicMarks[t->rng.Uniform(std::size(kDynamicMarks))];
        BatchResult br = Write(
            c, t, "E3-dynamics",
            {StrFormat("range of n is NOTE range of s is STAFF "
                       "replace n (dynamic = \"%s\") where "
                       "n under s in note_on_staff and s.number = %d "
                       "and n.midi_key = %d",
                       mark, t->tenant, key)});
        uint64_t affected = Affected(br);
        uint64_t expect = static_cast<uint64_t>(t->model->key_count.at(key));
        Check(c, t, affected == expect,
              StrFormat("E3 key %d affected %llu != %llu", key,
                        (unsigned long long)affected,
                        (unsigned long long)expect));
        break;
      }
    }
  }

  // --- analyzer: A1-A4 -----------------------------------------------

  void AnalyzerOp(Client* c, Tenant* t) {
    switch (t->rng.Uniform(4)) {
      case 0: {  // A1: §5.6 before-count against a rare pitch
        int key = t->rare_keys[t->rng.Uniform(t->rare_keys.size())];
        ResultSet rs = Read(
            c, t, kAnalyzer, "A1-before-count",
            StrFormat("range of n1, n2 is NOTE range of s is STAFF "
                      "retrieve (c = count(n1)) where "
                      "n1 before n2 in note_on_staff and "
                      "n2 under s in note_on_staff and s.number = %d "
                      "and n2.midi_key = %d",
                      t->tenant, key));
        // Each occurrence of `key` at staff position i has i
        // predecessors; the count sums them.
        int64_t expect = 0;
        for (size_t i = 0; i < t->model->keys.size(); ++i)
          if (t->model->keys[i] == key) expect += static_cast<int64_t>(i);
        int64_t got = rs.rows.empty() ? -1 : rs.At(0, 0).AsInt();
        Check(c, t, got == expect,
              StrFormat("A1 key %d count %lld != %lld", key, (long long)got,
                        (long long)expect));
        break;
      }
      case 1: {  // A2: note count
        ResultSet rs = Read(
            c, t, kAnalyzer, "A2-note-count",
            StrFormat("range of n is NOTE range of s is STAFF "
                      "retrieve (c = count(n)) where "
                      "n under s in note_on_staff and s.number = %d",
                      t->tenant));
        int64_t got = rs.rows.empty() ? -1 : rs.At(0, 0).AsInt();
        Check(c, t, got == t->model->notes,
              StrFormat("A2 count %lld != %d", (long long)got,
                        t->model->notes));
        break;
      }
      case 2: {  // A3: degree histogram (grouped aggregate)
        ResultSet rs = Read(
            c, t, kAnalyzer, "A3-degree-hist",
            StrFormat("range of n is NOTE range of s is STAFF "
                      "retrieve (c = count(n by n.degree)) where "
                      "n under s in note_on_staff and s.number = %d",
                      t->tenant));
        std::map<int, int> got;
        for (size_t r = 0; r < rs.rows.size(); ++r)
          got[static_cast<int>(rs.At(r, 0).AsInt())] =
              static_cast<int>(rs.At(r, 1).AsInt());
        Check(c, t, got == t->model->degree_hist,
              StrFormat("A3 histogram mismatch (%zu groups)", rs.rows.size()));
        break;
      }
      default: {  // A4: pitch range
        ResultSet rs = Read(
            c, t, kAnalyzer, "A4-range",
            StrFormat("range of n is NOTE range of s is STAFF "
                      "retrieve (lo = min(n.midi_key), "
                      "hi = max(n.midi_key)) where "
                      "n under s in note_on_staff and s.number = %d",
                      t->tenant));
        int64_t lo = rs.rows.empty() ? -1 : rs.At(0, 0).AsInt();
        int64_t hi = rs.rows.empty() ? -1 : rs.At(0, 1).AsInt();
        Check(c, t, lo == t->model->min_key && hi == t->model->max_key,
              StrFormat("A4 range [%lld,%lld] != [%d,%d]", (long long)lo,
                        (long long)hi, t->model->min_key, t->model->max_key));
        break;
      }
    }
  }

  // --- typesetter: T1-T2 ---------------------------------------------

  void TypesetterOp(Client* c, Tenant* t) {
    if (t->rng.Uniform(2) == 0) {  // T1: every note of the score, in order
      ResultSet rs = Read(
          c, t, kTypesetter, "T1-page-notes",
          StrFormat("range of n is NOTE range of s is STAFF "
                    "retrieve (n.midi_key, n.degree) where "
                    "n under s in note_on_staff and s.number = %d",
                    t->tenant));
      std::vector<int> got;
      got.reserve(rs.rows.size());
      for (size_t r = 0; r < rs.rows.size(); ++r)
        got.push_back(static_cast<int>(rs.At(r, 0).AsInt()));
      Check(c, t, HashKeys(got) == HashKeys(t->model->keys),
            StrFormat("T1 key sequence mismatch (%zu rows, %zu expected)",
                      got.size(), t->model->keys.size()));
      return;
    }
    // T2: measure listing for pagination
    ResultSet rs = Read(
        c, t, kTypesetter, "T2-measures",
        StrFormat("range of m is MEASURE range of v is MOVEMENT "
                  "range of s is SCORE retrieve (m.number) where "
                  "m under v in measure_in_movement and "
                  "v under s in movement_in_score and s.title = \"%s\"",
                  t->model->title.c_str()));
    size_t expect =
        static_cast<size_t>(t->model->measures + t->appended_measures);
    Check(c, t, rs.rows.size() == expect,
          StrFormat("T2 measures %zu != %zu", rs.rows.size(), expect));
  }

  // --- librarian: L1-L2 ----------------------------------------------

  static std::string Text(const ResultSet& rs) {
    if (rs.rows.size() != 1) return std::string();
    const mdm::rel::Value& v = rs.At(0, 0);
    return v.type() == mdm::rel::ValueType::kString ? v.AsString()
                                                    : std::string();
  }

  void LibrarianOp(Client* c, Tenant* t) {
    if (t->rng.Uniform(2) == 0) {  // L1: thematic-index probe by incipit
      ResultSet rs = Read(
          c, t, kLibrarian, "L1-incipit",
          StrFormat("range of e is CATALOG_ENTRY "
                    "retrieve (e.number) where e.incipit = \"%s\"",
                    t->model->incipit_text.c_str()));
      auto it = corpus_->incipit_count.find(t->model->incipit_text);
      size_t expect = it == corpus_->incipit_count.end()
                          ? 0
                          : static_cast<size_t>(it->second);
      Check(c, t, rs.rows.size() == expect,
            StrFormat("L1 incipit matches %zu != %zu", rs.rows.size(),
                      expect));
      return;
    }
    // L2: catalog-number probe (indexed); on the fig-1 mix it is paired
    // with a title lookup by scan, and the two must agree.
    ResultSet by_number = Read(
        c, t, kLibrarian, "L2-by-number",
        StrFormat("range of e is CATALOG_ENTRY "
                  "retrieve (e.title) where e.number = \"%s\"",
                  t->model->catalog_number.c_str()));
    if (cfg_.catalog_mix) {
      Check(c, t, Text(by_number) == t->model->title,
            StrFormat("L2 title \"%s\" != \"%s\"", Text(by_number).c_str(),
                      t->model->title.c_str()));
      return;
    }
    ResultSet by_title = Read(
        c, t, kLibrarian, "L2-by-title",
        StrFormat("range of e is CATALOG_ENTRY "
                  "retrieve (e.title) where e.title = \"%s\"",
                  t->model->title.c_str()));
    Check(c, t,
          Text(by_number) == t->model->title &&
              Text(by_title) == t->model->title,
          StrFormat("L2 index/scan disagree (%zu vs %zu rows)",
                    by_number.rows.size(), by_title.rows.size()));
  }

  const WorkloadConfig& cfg_;
  const mdm::corpus::Corpus* corpus_;
};

// ---------------------------------------------------------------------
// Set-up and teardown

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string tmp_dir = ".";
  std::string trace_out;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

/// Everything one set-up builds: the database (in-memory, or journaled
/// behind an mdmd server), the loaded corpus and the connected clients.
struct Deployment {
  std::unique_ptr<mdm::er::Database> memory_db;
  std::unique_ptr<mdm::er::DurableDatabase> durable_db;
  std::unique_ptr<mdm::net::Server> server;
  std::string dir;  // the journal directory of a durable workload
  mdm::corpus::Corpus corpus;
  std::vector<Client> clients;
  double load_s = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  mdm::er::Database* db() {
    return durable_db ? durable_db->db() : memory_db.get();
  }

  ~Deployment() {
    clients.clear();  // close connections before the server drains
    if (server) server->Stop();
    server.reset();
    durable_db.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

mdm::corpus::CorpusSpec CorpusSpecFor(const WorkloadConfig& cfg,
                                      const Options& o) {
  const Scale& s = o.tiny ? cfg.tiny : cfg.full;
  mdm::corpus::CorpusSpec spec;
  spec.seed = kCorpusSeed;
  spec.scores = s.scores;
  spec.target_total_notes = s.notes;
  return spec;
}

Result<std::unique_ptr<Deployment>> SetUp(const WorkloadConfig& cfg,
                                          const Options& o, int iteration) {
  auto d = std::make_unique<Deployment>();
  auto db = std::make_unique<mdm::er::Database>();
  mdm::corpus::LoadOptions load;
  load.spec = CorpusSpecFor(cfg, o);
  auto t0 = Clock::now();
  MDM_ASSIGN_OR_RETURN(d->corpus, mdm::corpus::LoadCorpus(db.get(), load));
  d->load_s = SecondsSince(t0);

  std::vector<Connection> conns;
  if (!cfg.durable) {
    d->memory_db = std::move(db);
  } else {
    // Journaled store: the loaded corpus becomes the checkpoint
    // snapshot, recovery opens it and attaches an empty journal, and
    // every later write is journaled, group-committed and fsynced.
    d->dir = StrFormat("%s/mdmbench-%d-%d", o.tmp_dir.c_str(),
                       static_cast<int>(getpid()), iteration);
    std::error_code ec;
    std::filesystem::remove_all(d->dir, ec);
    if (!std::filesystem::create_directories(d->dir, ec))
      return mdm::IoError("cannot create " + d->dir);
    const std::string path = d->dir + "/catalog.mdm";
    MDM_RETURN_IF_ERROR(mdm::er::SaveSnapshot(*db, path));
    db.reset();
    MDM_ASSIGN_OR_RETURN(d->durable_db, mdm::er::DurableDatabase::Open(path));
    d->durable_db->EnableGroupCommit(mdm::er::CommitCoordinator::Options{});
  }
  if (cfg.remote) {
    d->server = std::make_unique<mdm::net::Server>(d->db());
    MDM_RETURN_IF_ERROR(d->server->Start());
  }
  for (int i = 0; i < cfg.clients; ++i) {
    if (!cfg.remote) {
      conns.push_back(Connection::Local(d->db()));
      continue;
    }
    MDM_ASSIGN_OR_RETURN(Connection conn,
                         Connection::Remote("127.0.0.1", d->server->port()));
    conns.push_back(std::move(conn));
  }
  d->clients.resize(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    d->clients[i].id = static_cast<int>(i);
    d->clients[i].conn.emplace(std::move(conns[i]));
  }
  return d;
}

// ---------------------------------------------------------------------
// Phases

struct PhaseLimit {
  double seconds = 0;      // 0 = no time limit
  int64_t max_calls = -1;  // -1 = no call limit
  bool one_round = false;  // one op per owned tenant (warm-up)
};

/// Runs every client in its own thread until the limit, and returns the
/// phase's wall time.
double RunPhase(Runner* runner, std::vector<Client>* clients, uint8_t phase,
                bool tracing, size_t capture_stride, PhaseLimit limit) {
  std::atomic<int64_t> calls{0};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::nanoseconds(static_cast<int64_t>(limit.seconds * 1e9));
  auto body = [&](Client* c) {
    c->phase = phase;
    c->tracing = tracing;
    c->capture_stride = capture_stride;
    c->phase_calls = 0;
    size_t rounds_left = limit.one_round ? c->tenants.size() : SIZE_MAX;
    for (; rounds_left > 0; --rounds_left) {
      if (limit.seconds > 0 && Clock::now() >= deadline) break;
      if (limit.max_calls >= 0 && calls.load() >= limit.max_calls) break;
      size_t before = c->calls.size();
      Tenant* t = c->tenants[c->cursor++ % c->tenants.size()];
      runner->RunOneOp(c, t);
      calls.fetch_add(static_cast<int64_t>(c->calls.size() - before));
    }
    c->tracing = false;
    c->capture_stride = 0;
  };
  if (clients->size() == 1) {
    body(&(*clients)[0]);
  } else {
    std::vector<std::thread> threads;
    for (Client& c : *clients) threads.emplace_back(body, &c);
    for (std::thread& th : threads) th.join();
  }
  return SecondsSince(t0);
}

// ---------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string basis;  // sample count or what the value is taken over
};

/// Nearest-rank percentile of a sorted sample: the smallest value with
/// at least q of the samples at or below it.
double NearestRank(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Latency samples of one series, split by the window of the measured
/// phase in which each call ended.
using Windowed = std::vector<std::vector<double>>;

/// True when n samples leave at least ten beyond the nearest rank of q.
bool HasTail(size_t n, double q) {
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(q * n)));
  return rank <= n && n - rank >= 10;
}

/// Appends `<prefix>_p50_ms` etc. for each quantile whose rank leaves at
/// least ten samples of the run beyond it. Where every window also
/// leaves ten, the value is the median over the windows of each
/// window's nearest-rank percentile, so a few seconds of host noise
/// move a tail percentile little; otherwise it is the whole run's.
/// Failed calls count as infinitely slow.
void AddPercentiles(std::vector<Metric>* out, const std::string& prefix,
                    Windowed windows, std::initializer_list<int> percents) {
  std::vector<double> all;
  for (std::vector<double>& w : windows) {
    std::sort(w.begin(), w.end());
    all.insert(all.end(), w.begin(), w.end());
  }
  std::sort(all.begin(), all.end());
  for (int p : percents) {
    const double q = p / 100.0;
    if (!HasTail(all.size(), q)) continue;
    const double whole = NearestRank(all, q);
    bool every = windows.size() > 1;
    for (const std::vector<double>& w : windows)
      every = every && HasTail(w.size(), q);
    std::string name = StrFormat("%s_p%d_ms", prefix.c_str(), p);
    if (!every) {
      out->push_back({name, whole, "ms",
                      StrFormat("n=%zu, whole run", all.size())});
      continue;
    }
    std::vector<double> per_window;
    for (const std::vector<double>& w : windows)
      per_window.push_back(NearestRank(w, q));
    out->push_back({name, Median(per_window), "ms",
                    StrFormat("n=%zu, median of %zu windows; whole run %.4f",
                              all.size(), windows.size(), whole)});
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

using Counters = std::map<std::string, uint64_t>;

Counters Snapshot() { return mdm::obs::Registry::Global()->CounterValues(); }

uint64_t Delta(const Counters& before, const Counters& after,
               const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

std::string SpanSum(const char* span) {
  return StrFormat("mdm_span_duration_ns_sum{span=\"%s\"}", span);
}
std::string SpanCount(const char* span) {
  return StrFormat("mdm_span_duration_ns_count{span=\"%s\"}", span);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------
// Timed layer calls (traced run only)

/// Runs `pass` until at least `min_s` seconds and 3 passes have elapsed;
/// returns the mean wall time per pass in microseconds.
template <typename Fn>
double TimePasses(Fn&& pass, double min_s = 0.2) {
  int passes = 0;
  const auto t0 = Clock::now();
  do {
    pass();
    ++passes;
  } while (passes < 3 || SecondsSince(t0) < min_s);
  return SecondsSince(t0) * 1e6 / passes;
}

/// The traced run's layer-call phase is one root span; each timed call
/// is its child. Ids sit above 2^60, clear of the per-client op spans.
constexpr uint64_t kLayerRootId = uint64_t{1} << 60;
constexpr uint32_t kLayerTid = 999;

void AddLayerSpan(std::vector<BenchSpan>* spans, const char* name,
                  uint64_t t0) {
  spans->push_back(BenchSpan{name, kLayerTid, t0, NowNs() - t0,
                             kLayerRootId + spans->size() + 1,
                             kLayerRootId});
}

struct LayerCalls {
  double parse_us = 0;
  double plan_us = 0;
  double encode_us = 0;
  double decode_us = 0;
  std::string error;  // non-empty when a layer call failed
};

/// Times quel::ParseQuel, quel::PlanQuery and the net/protocol Encode*/
/// Decode* functions on the captured requests and replies. Each figure
/// is the mean cost per captured op. Runs with every client idle.
LayerCalls TimeLayerCalls(mdm::er::Database* db,
                          const std::vector<Capture>& caps,
                          std::vector<BenchSpan>* spans) {
  LayerCalls out;
  if (caps.empty()) return out;
  const double n = static_cast<double>(caps.size());

  uint64_t t0 = NowNs();
  out.parse_us = TimePasses([&] {
                   for (const Capture& cap : caps)
                     for (const std::string& s : cap.scripts)
                       if (!mdm::quel::ParseQuel(s).ok())
                         out.error = "ParseQuel failed on " + s;
                 }) / n;
  AddLayerSpan(spans, "quel.parse", t0);

  // Plan every retrieve/replace/delete against the ranges its script
  // declares, under the shared latch the executor's fallback path takes.
  std::vector<std::vector<mdm::quel::Statement>> parsed;
  for (const Capture& cap : caps)
    for (const std::string& s : cap.scripts) {
      auto p = mdm::quel::ParseQuel(s);
      if (p.ok()) parsed.push_back(*std::move(p));
    }
  t0 = NowNs();
  {
    std::shared_lock<std::shared_mutex> latch(db->latch());
    out.plan_us = TimePasses([&] {
                    for (const auto& stmts : parsed) {
                      std::map<std::string, std::string> ranges;
                      for (const mdm::quel::Statement& st : stmts) {
                        using K = mdm::quel::Statement::Kind;
                        if (st.kind == K::kRange) {
                          for (const std::string& v : st.range_vars)
                            ranges[mdm::AsciiLower(v)] = st.range_type;
                        } else if (st.kind != K::kAppend) {
                          auto plan =
                              mdm::quel::PlanQuery(db, ranges, st, true);
                          if (!plan.ok())
                            out.error = "PlanQuery failed: " +
                                        plan.status().message();
                        }
                      }
                    }
                  }) / n;
  }
  AddLayerSpan(spans, "quel.plan", t0);

  // Encode: request frame(s) plus every reply frame, as mdmd and the
  // client would put them on the wire.
  auto encode_all = [&](std::vector<std::vector<uint8_t>>* req,
                        std::vector<std::vector<uint8_t>>* rep) {
    for (const Capture& cap : caps) {
      if (cap.batch) {
        mdm::net::BatchExecuteRequest r;
        r.scripts = cap.scripts;
        req->push_back(mdm::net::EncodeFrame(
            mdm::net::EncodeBatchExecuteRequest(r)));
        rep->push_back(mdm::net::EncodeFrame(
            mdm::net::EncodeBatchStatus(cap.batch_reply)));
        for (const auto& f : mdm::net::EncodeResultSetPages(
                 cap.batch_reply.last, 256))
          rep->push_back(mdm::net::EncodeFrame(f));
      } else {
        mdm::net::ExecuteRequest r;
        r.script = cap.scripts[0];
        req->push_back(
            mdm::net::EncodeFrame(mdm::net::EncodeExecuteRequest(r)));
        for (const auto& f : mdm::net::EncodeResultSetPages(cap.reply, 256))
          rep->push_back(mdm::net::EncodeFrame(f));
      }
    }
  };
  t0 = NowNs();
  out.encode_us = TimePasses([&] {
                    std::vector<std::vector<uint8_t>> req, rep;
                    encode_all(&req, &rep);
                  }) / n;
  AddLayerSpan(spans, "net.encode", t0);

  std::vector<std::vector<uint8_t>> req, rep;
  encode_all(&req, &rep);
  t0 = NowNs();
  out.decode_us =
      TimePasses([&] {
        for (const auto& bytes : req) {
          auto f = mdm::net::DecodeFrame(bytes.data(), bytes.size());
          bool ok = f.ok();
          if (ok && f->type == mdm::net::FrameType::kExecuteRequest)
            ok = mdm::net::DecodeExecuteRequest(*f).ok();
          else if (ok)
            ok = mdm::net::DecodeBatchExecuteRequest(*f).ok();
          if (!ok) out.error = "request frame failed to decode";
        }
        ResultSet rs;
        BatchResult br;
        for (const auto& bytes : rep) {
          auto f = mdm::net::DecodeFrame(bytes.data(), bytes.size());
          bool ok = f.ok();
          if (ok && f->type == mdm::net::FrameType::kBatchStatus) {
            bool follow = false;
            br = BatchResult{};
            ok = mdm::net::DecodeBatchStatus(*f, &br, &follow).ok();
          } else if (ok) {
            bool done = false;
            ok = mdm::net::DecodeResultPage(*f, &rs, &done).ok();
            if (done) rs = ResultSet{};
          }
          if (!ok) out.error = "reply frame failed to decode";
        }
      }) /
      n;
  AddLayerSpan(spans, "net.decode", t0);
  return out;
}

// ---------------------------------------------------------------------
// Output

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.basis.c_str());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

/// Spans beyond this many are kept in memory but not written out.
constexpr size_t kMaxWrittenSpans = 200'000;

void WriteTrace(const std::string& path, const std::vector<BenchSpan>& spans,
                uint64_t origin_ns) {
  if (path.empty()) return;
  const size_t n = std::min(spans.size(), kMaxWrittenSpans);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < n; ++i) {
    const BenchSpan& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu}}\n",
                 i ? "," : "", s.name, s.tid,
                 (s.start_ns - origin_ns) / 1e3, s.dur_ns / 1e3,
                 (unsigned long long)s.id, (unsigned long long)s.parent);
  }
  std::fprintf(f, "], \"otherData\": {\"spans\": %zu, \"written\": %zu}}\n",
               spans.size(), n);
  std::fclose(f);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--workload" && (v = next())) o->workload = v;
    else if (a == "--seed" && (v = next())) o->seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds" && (v = next())) o->seconds = std::strtod(v, nullptr);
    else if (a == "--trace" && (v = next())) o->trace = std::string(v) == "1";
    else if (a == "--scale" && (v = next())) o->tiny = std::string(v) == "tiny";
    else if (a == "--tmp-dir" && (v = next())) o->tmp_dir = v;
    else if (a == "--trace-out" && (v = next())) o->trace_out = v;
    else if (a == "--commit" && (v = next())) o->commit = v;
    else if (a == "--src-digest" && (v = next())) o->src_digest = v;
    else {
      std::fprintf(stderr, "unknown or incomplete argument %s\n", a.c_str());
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

int Main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: mdmbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--scale full|tiny]\n");
    return 2;
  }
  const WorkloadConfig* cfg = nullptr;
  for (const WorkloadConfig& w : kWorkloads)
    if (o.workload == w.name) cfg = &w;
  if (cfg == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  const Scale& scale = o.tiny ? cfg->tiny : cfg->full;

  std::printf("mdmbench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%s clients=%d transport=%s\n",
              cfg->name, (unsigned long long)o.seed, o.seconds,
              o.trace ? 1 : 0, o.tiny ? "tiny" : "full", cfg->clients,
              !cfg->remote    ? "local, in-memory db"
              : cfg->durable ? "remote mdmd, journaled db, fsync on, group "
                               "commit interval_us=100 max_batch=64"
                             : "remote mdmd, in-memory db");
  std::printf("host {\"nproc\": %u, \"compiler\": \"%s\", \"cxx_flags\": "
              "\"%s\", \"commit\": \"%s\", \"src_digest\": \"%s\"}\n",
              std::thread::hardware_concurrency(),
              JsonEscape(MDMBENCH_COMPILER).c_str(),
              JsonEscape(MDMBENCH_CXX_FLAGS).c_str(),
              JsonEscape(o.commit).c_str(), JsonEscape(o.src_digest).c_str());

  // Set up kSetups times and keep the last; setup_s is their median.
  // The first also carries process start-up.
  std::vector<double> setup_s, load_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();  // the previous set-up's teardown is not set-up time
    auto t0 = i == 0 ? process_start : Clock::now();
    auto dep = SetUp(*cfg, o, i);
    if (!dep.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   dep.status().message().c_str());
      return 1;
    }
    d = *std::move(dep);
    setup_s.push_back(SecondsSince(t0));
    load_s.push_back(d->load_s);
  }
  std::printf("corpus: %zu scores, %lld notes, %lld measures\n",
              d->corpus.tenants.size(), (long long)d->corpus.total_notes,
              (long long)d->corpus.total_measures);

  // Per-tenant op streams, seeded from --seed alone and partitioned
  // tenant % clients, so each stream is the same for any client count.
  std::vector<Tenant> tenants(d->corpus.tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    Tenant& t = tenants[i];
    t.model = &d->corpus.tenants[i];
    t.tenant = t.model->tenant;
    t.rng = Rng(o.seed * 0x9E3779B97F4A7C15ull +
                static_cast<uint64_t>(t.tenant + 1) * 0x94D049BB133111EBull);
    for (const auto& [key, n] : t.model->key_count)
      if (n <= 2) t.rare_keys.push_back(key);
    if (t.rare_keys.empty()) t.rare_keys.push_back(t.model->min_key);
    d->clients[i % d->clients.size()].tenants.push_back(&t);
  }
  Runner runner(*cfg, &d->corpus);
  std::vector<Client>& clients = d->clients;

  // Warm-up: one op per tenant, checked but not timed.
  RunPhase(&runner, &clients, kWarmup, false, 0, {0, -1, true});

  std::vector<Metric> metrics;
  const uint64_t trace_origin = NowNs();
  std::vector<BenchSpan> layer_spans;
  if (!o.trace) {
    const uint64_t measure_t0 = NowNs();
    double wall = RunPhase(&runner, &clients, kMeasure, false, 0,
                           {o.seconds, -1, false});
    // Percentiles are taken per window of the measured phase (one per
    // whole second asked for) and reported as the median over windows.
    const size_t nwin = std::max<size_t>(1, static_cast<size_t>(o.seconds));
    Windowed reads(nwin), writes(nwin), per_class[kClassCount];
    for (Windowed& w : per_class) w.resize(nwin);
    uint64_t calls = 0;
    for (const Client& c : clients)
      for (const Call& call : c.calls) {
        if (call.phase != kMeasure) continue;
        ++calls;
        const size_t win = std::min<size_t>(
            nwin - 1, static_cast<size_t>((call.end_ns - measure_t0) / 1e9 *
                                          nwin / o.seconds));
        double ms = call.ok ? call.ns / 1e6 : INFINITY;
        (call.write ? writes : reads)[win].push_back(ms);
        per_class[call.cls][win].push_back(ms);
      }
    metrics.push_back({"setup_s", Median(setup_s), "s",
                       StrFormat("median of %d set-ups", kSetups)});
    metrics.push_back({"ops_per_s", calls / wall, "1/s",
                       StrFormat("n=%llu calls in %.3f s",
                                 (unsigned long long)calls, wall)});
    AddPercentiles(&metrics, "read", reads, {50, 95, 99});
    AddPercentiles(&metrics, "write", writes, {50, 95});
    for (int k = 0; k < kClassCount; ++k)
      AddPercentiles(&metrics, kClassNames[k], per_class[k], {50});
    // Per op name, for reading the class and read/write figures.
    std::map<std::string, std::vector<double>> by_op;
    for (const Client& c : clients)
      for (const Call& call : c.calls)
        if (call.phase == kMeasure)
          by_op[call.name].push_back(call.ok ? call.ns / 1e6 : INFINITY);
    // Completed calls per tenth of the measured phase: shows drift
    // within a run.
    std::vector<uint64_t> tenths(10, 0);
    for (const Client& c : clients)
      for (const Call& call : c.calls)
        if (call.phase == kMeasure)
          ++tenths[std::min<uint64_t>(
              9, (call.end_ns - measure_t0) * 10 /
                     static_cast<uint64_t>(wall * 1e9))];
    std::printf("calls per tenth of the run:");
    for (uint64_t n : tenths) std::printf(" %llu", (unsigned long long)n);
    std::printf("\nper-op latency (ms):\n");
    for (auto& [name, ms] : by_op) {
      std::sort(ms.begin(), ms.end());
      std::printf("  op %-20s n=%-7zu p50 %10.4f  max %10.4f\n",
                  name.c_str(), ms.size(), NearestRank(ms, 0.5), ms.back());
    }
  } else {
    // Traced window: a fixed number of calls, so every count repeats
    // for a fixed seed where the interleaving is fixed (one client).
    const int64_t window = std::max<int64_t>(
        1, static_cast<int64_t>(scale.traced_rate * o.seconds));
    const size_t stride = static_cast<size_t>(std::max<int64_t>(
        1, window / static_cast<int64_t>(clients.size() *
                                         kCapturesPerClient)));
    const Counters before = Snapshot();
    double traced_wall = RunPhase(&runner, &clients, kTraced, true, stride,
                                  {0, window, false});
    const Counters after = Snapshot();

    uint64_t calls = 0, writes = 0, rows = 0, scripts = 0, write_bytes = 0;
    double client_ns = 0;
    std::vector<Capture> caps;
    for (Client& c : clients) {
      for (const Call& call : c.calls) {
        if (call.phase != kTraced) continue;
        ++calls;
        writes += call.write;
        client_ns += static_cast<double>(call.ns);
      }
      rows += c.rows_returned;
      scripts += c.scripts;
      write_bytes += c.write_user_bytes;
      std::move(c.captures.begin(), c.captures.end(),
                std::back_inserter(caps));
    }
    const double ops = static_cast<double>(calls);
    const double wr = static_cast<double>(writes);
    auto delta = [&](const std::string& name) {
      return static_cast<double>(Delta(before, after, name));
    };
    const double fsyncs = delta(SpanCount("storage.fsync"));
    const double stmt_ms = delta(SpanSum("quel.statement")) / 1e6;
    const double server_ms = delta(SpanSum("net.request")) / 1e6;
    const std::string win = StrFormat("over %llu traced calls",
                                      (unsigned long long)calls);
    const std::string per_write = StrFormat(
        "over %llu traced writes", (unsigned long long)writes);

    const uint64_t layers_t0 = NowNs();
    LayerCalls lc = TimeLayerCalls(d->db(), caps, &layer_spans);
    if (!lc.error.empty()) {
      std::fprintf(stderr, "layer call failed: %s\n", lc.error.c_str());
      return 1;
    }
    const std::string percap =
        StrFormat("mean per op over %zu captured ops", caps.size());

    // corpus: regenerate the same score specs, median of three passes.
    std::vector<double> gen_s;
    const mdm::corpus::CorpusSpec spec = CorpusSpecFor(*cfg, o);
    for (int pass = 0; pass < 3; ++pass) {
      uint64_t t0 = NowNs();
      int64_t notes = 0;
      for (int i = 0; i < spec.scores; ++i)
        notes += mdm::corpus::GenerateScore(
                     mdm::corpus::DeriveScoreSpec(spec, i))
                     .notes;
      AddLayerSpan(&layer_spans, "corpus.generate", t0);
      gen_s.push_back((NowNs() - t0) / 1e9);
      if (notes <= 0) return 1;
    }
    layer_spans.push_back(BenchSpan{"layer_calls", kLayerTid, layers_t0,
                                    NowNs() - layers_t0, kLayerRootId, 0});

    const double snap_reads = delta("mdm_quel_snapshot_reads_total");
    const double shared_reads = delta("mdm_quel_shared_latch_total");
    metrics = {
        {"quel.statements_per_op", delta("mdm_quel_statements_total") / ops,
         "count", win},
        {"quel.rows_scanned_per_op", delta("mdm_quel_rows_scanned_total") / ops,
         "count", win},
        {"quel.rows_scanned_per_row_returned",
         Ratio(delta("mdm_quel_rows_scanned_total"), static_cast<double>(rows)),
         "ratio", StrFormat("%llu rows returned", (unsigned long long)rows)},
        {"quel.conjuncts_per_op", delta("mdm_quel_conjuncts_total") / ops,
         "count", win},
        {"quel.index_lookups_per_op", delta("mdm_index_lookups_total") / ops,
         "count", win},
        {"quel.statement_ms_per_op", stmt_ms / ops, "ms",
         "quel.statement span sum, " + win},
        {"quel.snapshot_read_ratio",
         Ratio(snap_reads, snap_reads + shared_reads), "ratio",
         StrFormat("%.0f read statements", snap_reads + shared_reads)},
        {"quel.exclusive_latches_per_op",
         delta("mdm_quel_exclusive_latch_total") / ops, "count", win},
        {"quel.parse_us", lc.parse_us, "us", percap},
        {"quel.plan_us", lc.plan_us, "us", percap},
        {"quel.parse_cache_hit_ratio",
         Ratio(delta("mdm_quel_parse_cache_hits_total"),
               static_cast<double>(scripts)),
         "ratio", StrFormat("%llu scripts", (unsigned long long)scripts)},
        {"er.interval_rebuilds_per_op",
         delta("mdm_er_interval_rebuilds_total") / ops, "count", win},
        {"er.rank_rebuilds_per_op", delta("mdm_er_rank_rebuilds_total") / ops,
         "count", win},
        {"er.interval_rebuild_ms_per_op",
         delta(SpanSum("er.interval_rebuild")) / 1e6 / ops, "ms", win},
        {"er.linear_scans_per_op", delta("mdm_er_linear_scans_total") / ops,
         "count", win},
        {"er.snapshot_pin_fallbacks",
         delta("mdm_er_snapshot_pin_fallbacks_total"), "count", win},
        {"er.index_snapshot_fallbacks",
         delta("mdm_index_snapshot_fallbacks_total"), "count", win},
        {"net.server_ms_per_op", server_ms / ops, "ms",
         "net.request span sum, " + win},
        {"net.client_wait_ms_per_op",
         server_ms > 0 ? (client_ns / 1e6 - server_ms) / ops : 0, "ms",
         "client latency minus server time, " + win},
        {"net.bytes_in_per_op", delta("mdm_net_bytes_in_total") / ops, "bytes",
         win},
        {"net.bytes_out_per_op", delta("mdm_net_bytes_out_total") / ops,
         "bytes", win},
        {"net.encode_us", lc.encode_us, "us", percap},
        {"net.decode_us", lc.decode_us, "us", percap},
        {"net.retries", delta("mdm_net_client_retries_total"), "count", win},
        {"net.shed", delta("mdm_net_shed_total"), "count", win},
        {"wal.records_per_write", Ratio(delta("mdm_wal_records_total"), wr),
         "count", per_write},
        {"wal.bytes_per_write", Ratio(delta("mdm_wal_bytes_total"), wr), "bytes",
         per_write},
        {"wal.bytes_per_user_byte",
         Ratio(delta("mdm_wal_bytes_total"), static_cast<double>(write_bytes)),
         "ratio",
         StrFormat("%llu bytes of write scripts",
                   (unsigned long long)write_bytes)},
        {"wal.commits_per_fsync", Ratio(delta("mdm_wal_commits_total"), fsyncs),
         "ratio", StrFormat("%.0f fsyncs", fsyncs)},
        {"storage.fsyncs_per_write", Ratio(fsyncs, wr), "count", per_write},
        {"storage.fsync_ms_per_write",
         Ratio(delta(SpanSum("storage.fsync")) / 1e6, wr), "ms", per_write},
        {"corpus.generate_s", Median(gen_s), "s", "median of 3 passes"},
        {"corpus.import_notes_per_s",
         d->corpus.total_notes / Median(load_s), "1/s",
         StrFormat("median LoadCorpus time of %d set-ups", kSetups)},
        {"trace.ops_per_s_traced", ops / traced_wall, "1/s", win},
    };
  }

  // Correctness over every call of every phase.
  uint64_t attempted = 0, failed = 0, divergences = 0;
  for (const Client& c : clients) {
    attempted += c.calls.size();
    for (const Call& call : c.calls) failed += !call.ok;
    divergences += c.divergences;
    for (const std::string& m : c.divergence_msgs)
      std::printf("divergence: %s\n", m.c_str());
  }
  metrics.push_back({"failed_ratio", Ratio(failed, attempted), "ratio",
                     StrFormat("%llu of %llu calls", (unsigned long long)failed,
                               (unsigned long long)attempted)});
  if (!o.trace)
    metrics.push_back({"rss_mb", PeakRssMb(), "MB", "peak resident set"});

  // Op-log digest over the first kDigestOps ops of every tenant.
  uint64_t digest = 0;
  bool complete = true;
  for (const Tenant& t : tenants) {
    digest += t.log_hash;
    complete = complete && t.ops_done >= kDigestOps;
  }
  if (complete)
    std::printf("op_log_digest %016llx (first %d ops of each of %zu "
                "tenants)\n",
                (unsigned long long)digest, kDigestOps, tenants.size());
  else
    std::printf("op_log_digest incomplete (some tenant ran < %d ops)\n",
                kDigestOps);

  PrintMetrics(o.trace ? "per-layer metrics (traced run):"
                       : "end-to-end metrics:",
               metrics);

  if (o.trace) {
    std::vector<BenchSpan> spans = std::move(layer_spans);
    for (const Client& c : clients)
      spans.insert(spans.end(), c.spans.begin(), c.spans.end());
    std::sort(spans.begin(), spans.end(),
              [](const BenchSpan& a, const BenchSpan& b) {
                return a.start_ns < b.start_ns;
              });
    WriteTrace(o.trace_out, spans, trace_origin);
    if (!o.trace_out.empty())
      std::printf("trace: %zu spans, first %zu written to %s\n",
                  spans.size(), std::min(spans.size(), kMaxWrittenSpans),
                  o.trace_out.c_str());
  }

  const bool correct = failed == 0 && divergences == 0 && complete;
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", (unsigned long long)attempted,
      (unsigned long long)failed);
  // A percentile over failed calls is infinite; JSON has no infinity,
  // so it reads null (such a run is never correct).
  for (size_t i = 0; i < metrics.size(); ++i)
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      std::isfinite(metrics[i].value)
                          ? StrFormat("%.9g", metrics[i].value).c_str()
                          : "null",
                      metrics[i].unit.c_str());
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
