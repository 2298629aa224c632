// tlcbench driver: loads a seeded TLC-shaped dataset into a BeasService
// with its default options, serves it with a net::Server on loopback in
// this process, and drives one workload as closed-loop net::Client
// connections. Prints human-readable lines, then one JSON result line.
//
//   tlcbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out <dir>]
//   tlcbench_driver --fig4 [--out <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same timed
// window (tracing off), then replays a seeded sample of its requests one
// at a time with spans around each layer call, and reports per-layer
// metrics. --fig4 prints the data-size scaling table of the README.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checks.h"
#include "common/shard_config.h"
#include "common/task_pool.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/beas_service.h"
#include "service/result_cache.h"
#include "sql/canonical_template.h"
#include "sql/sql_template.h"
#include "tlc_data.h"
#include "trace.h"

#ifndef TLCBENCH_BUILD_TYPE
#define TLCBENCH_BUILD_TYPE "unknown"
#endif

namespace tlcbench {
namespace {

using beas::BeasService;
using beas::QueryRequest;
using beas::QueryResponse;
using beas::Row;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload parameters (the README's "input make-up").

constexpr double kScaleFactor = 8;       ///< 3200 subscribers, ~370k rows
constexpr size_t kZipfHotSet = 32;       ///< hot parameter tuples per template
constexpr double kZipfExponent = 1.1;
constexpr double kRespellShare = 0.25;   ///< point_zipf requests respelled
/// ingest_durable checkpoints: at kFirstCheckpointRows acknowledged rows,
/// ~2 s into the window, then every kCheckpointEveryRows (~40 s, past a
/// 25-second window). Reads can run slower after a checkpoint for the
/// rest of a run, so each window holds one, early: with one every 20,000
/// rows (~10 s), or a second at ~14 s, the medians flipped with the side
/// of the window's middle a checkpoint fell on.
constexpr uint64_t kFirstCheckpointRows = 2000;
constexpr uint64_t kCheckpointEveryRows = 40000;
/// ingest_durable reads of existing data per write (plus one read-back of
/// the written subscriber-day). Reads, not fsyncs, set the round's pace:
/// at 6 the fsync wait was ~27% of a round and the read figures followed
/// the shared disk's latency from run to run.
constexpr int kIngestReadsPerWrite = 18;
constexpr size_t kTraceSamplePerClient = 50;
constexpr size_t kMaxClients = 4;

/// Template ids of the ingest read-backs, after the point and cohort ones.
constexpr int kReadbackTemplate = kPointTemplates + kCohortTemplates;

std::string OpName(int template_id) {
  return template_id >= kReadbackTemplate
             ? std::string("readback_") +
                   CdrTableName(static_cast<CdrTable>(template_id - kReadbackTemplate))
             : TemplateName(template_id);
}

enum class Workload { kPointUniform, kPointZipf, kCohortWide, kIngestDurable };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointUniform: return "point_uniform";
    case Workload::kPointZipf: return "point_zipf";
    case Workload::kCohortWide: return "cohort_wide";
    default: return "ingest_durable";
  }
}

bool ParseWorkload(const std::string& s, Workload* w) {
  for (Workload c : {Workload::kPointUniform, Workload::kPointZipf,
                     Workload::kCohortWide, Workload::kIngestDurable}) {
    if (s == WorkloadName(c)) {
      *w = c;
      return true;
    }
  }
  return false;
}

/// Placeholder for a Result assigned later (a Result cannot hold OK
/// without a value).
beas::Status NotRun() { return beas::Status::Unavailable("not run"); }

double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

/// Closed-loop connections: half the cores (at most kMaxClients / 2). At
/// one connection per core, the client threads plus the server's reader
/// and dispatcher threads oversubscribe the cores, and run-to-run spread
/// of the latency figures doubled. `cohort_wide` takes one fewer than the
/// cores: its requests run for milliseconds, so the cores are not
/// oversubscribed, and at half the cores they sat idle between requests
/// and its run-to-run spread was two to three times as wide.
size_t NumClients(bool cohort) {
  size_t cores = std::min(std::max<size_t>(1, std::thread::hardware_concurrency()),
                          kMaxClients);
  return std::max<size_t>(1, cohort ? cores - 1 : cores / 2);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "fs-0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double DirMb(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: an empty service to ready to serve.

struct SetupTimes {
  double total_s = 0, load_s = 0, index_s = 0, checkpoint_s = 0;
};

/// Loads `tables` (moved in) and the access schema through the public
/// CreateTable / InsertBatch / RegisterConstraint calls.
beas::Status LoadService(BeasService* svc, std::vector<TableData>* tables,
                         SetupTimes* times) {
  int64_t t0 = NowNs();
  for (TableData& t : *tables) {
    auto created = svc->CreateTable(t.name, t.schema);
    if (!created.ok()) return created.status();
    BEAS_RETURN_NOT_OK(svc->InsertBatch(t.name, std::move(t.rows)));
    t.rows.clear();
  }
  times->load_s = SecondsSince(t0);
  int64_t t1 = NowNs();
  for (const beas::AccessConstraint& c : AccessConstraints()) {
    BEAS_RETURN_NOT_OK(svc->RegisterConstraint(c));
  }
  times->index_s = SecondsSince(t1);
  if (svc->durable()) {
    int64_t t2 = NowNs();
    BEAS_RETURN_NOT_OK(svc->Checkpoint());
    times->checkpoint_s = SecondsSince(t2);
  }
  return beas::Status::OK();
}

// ---------------------------------------------------------------------------
// The clients.

/// One read the client sent, kept for the full-scan check or the replay.
struct SampledRead {
  int template_id = 0;
  std::string sql;
  bool respelled = false;
  bool hit = false;  ///< served from the result cache in the timed run
  std::vector<Row> rows;
};

/// One timed operation: when it completed and how long it took.
struct Sample {
  int64_t end_ns;
  double us;
};

/// A window's completions as medians over its one-second slices, so that
/// a stall or a burst of outside load that hits a minority of the seconds
/// moves none of them: the completion rate and the median latency of each
/// second, and the 99th percentile of each of the fewest equal slices
/// that hold at least kTailSamples samples (the whole window when it
/// holds fewer).
struct WindowStats {
  double rate = 0;  ///< completions per second
  double p50_us = 0;
  double p99_us = 0;
  size_t p99_slices = 0;
  std::vector<double> per_second;  ///< completions in each second
  std::vector<double> p50_per_second;
  std::vector<double> p99_per_slice;
};
constexpr size_t kTailSamples = 2000;  ///< 20 beyond each slice's p99

WindowStats Summarize(const std::vector<Sample>& samples, int64_t window0_ns,
                      int seconds) {
  auto sliced = [&](size_t n) {
    std::vector<std::vector<double>> slices(n);
    const double slice_ns = static_cast<double>(seconds) * 1e9 / static_cast<double>(n);
    for (const Sample& s : samples) {
      auto i = static_cast<int64_t>(static_cast<double>(s.end_ns - window0_ns) / slice_ns);
      slices[static_cast<size_t>(std::clamp<int64_t>(i, 0, static_cast<int64_t>(n) - 1))]
          .push_back(s.us);
    }
    return slices;
  };
  WindowStats out;
  std::vector<double> p50, p99;
  for (const std::vector<double>& slice : sliced(static_cast<size_t>(seconds))) {
    out.per_second.push_back(static_cast<double>(slice.size()));
    if (!slice.empty()) p50.push_back(Median(slice));
    out.p50_per_second.push_back(slice.empty() ? 0 : Median(slice));
  }
  out.p99_slices = std::clamp<size_t>(samples.size() / kTailSamples, 1,
                                      static_cast<size_t>(seconds));
  for (const std::vector<double>& slice : sliced(out.p99_slices)) {
    if (!slice.empty()) p99.push_back(Percentile(slice, 0.99));
  }
  out.p99_per_slice = p99;
  out.rate = Median(out.per_second);
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  return out;
}

struct ClientResult {
  uint64_t reads = 0, writes = 0, failed = 0, received = 0, rc_hits = 0;
  std::vector<Sample> read_us, write_us;
  std::vector<std::string> errors;  ///< correctness violations (first few)
  uint64_t violations = 0;
  /// First hit / miss / respelled-hit / respelled-miss per template.
  std::map<std::pair<int, int>, SampledRead> oracle_sample;
  std::vector<SampledRead> trace_sample;  ///< reservoir over the window
  uint64_t trace_seen = 0;
  /// ingest_durable: acknowledged rows per table.
  std::vector<Row> acked[kCdrTables];
};

/// Shared state of one run's clients.
struct Shared {
  Workload workload;
  uint64_t seed = 0;
  size_t clients = 0;
  size_t subscribers = 0;
  uint16_t port = 0;
  BeasService* svc = nullptr;
  std::vector<std::vector<uint64_t>> hot;  ///< point_zipf hot tuples
  Zipf zipf{kZipfHotSet, kZipfExponent};

  std::mutex mu;
  std::condition_variable cv;
  size_t warmed = 0;
  bool go = false;
  int64_t deadline_ns = 0;
  std::atomic<uint64_t> rows_acked{0};

  /// ingest_durable: checkpoints owed (see kFirstCheckpointRows), taken
  /// by a checkpointer thread off the clients' critical path.
  std::mutex ckpt_mu;
  std::condition_variable ckpt_cv;
  uint64_t ckpt_pending = 0;
  bool ckpt_stop = false;
  std::vector<double> checkpoint_ms;
  std::vector<int64_t> checkpoint_start_ns;
  std::vector<std::string> checkpoint_errors;

  void CheckpointLoop() {
    std::unique_lock<std::mutex> lock(ckpt_mu);
    for (;;) {
      ckpt_cv.wait(lock, [&] { return ckpt_pending > 0 || ckpt_stop; });
      if (ckpt_pending == 0) return;
      --ckpt_pending;
      lock.unlock();
      int64_t t0 = NowNs();
      beas::Status st = svc->Checkpoint();
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      lock.lock();
      checkpoint_ms.push_back(ms);
      checkpoint_start_ns.push_back(t0);
      if (!st.ok()) checkpoint_errors.push_back(st.ToString());
    }
  }
};

class ClientLoop {
 public:
  ClientLoop(Shared* shared, size_t index)
      : sh_(shared),
        index_(index),
        rng_(MixSeed(shared->seed, 0xC11E, index)),
        sample_rng_(MixSeed(shared->seed, 0x5A3, index)) {
    if (sh_->workload == Workload::kIngestDurable) {
      for (size_t i = index; i < sh_->subscribers; i += sh_->clients) {
        owned_.push_back(kFirstPnum + static_cast<int64_t>(i));
      }
    }
  }

  void Run(ClientResult* out) {
    out_ = out;
    beas::Status st = client_.Connect("127.0.0.1", sh_->port);
    if (!st.ok()) {
      Violation("connect: " + st.ToString());
      return;
    }
    // Warm-up: fill the plan cache and reach the steady cache state
    // before timing. Not counted; ingest warms up with reads only. Cohort
    // IN-list lengths make 72 templates: 100 rounds see them all, and
    // its throughput still rose over the first seconds after 100.
    size_t warm_rounds = sh_->workload == Workload::kCohortWide ? 250 : 60;
    timed_ = false;
    for (size_t r = 0; r < warm_rounds; ++r) Round(/*writes=*/false);
    {
      std::unique_lock<std::mutex> lock(sh_->mu);
      ++sh_->warmed;
      sh_->cv.notify_all();
      sh_->cv.wait(lock, [&] { return sh_->go; });
    }
    timed_ = true;
    while (NowNs() < sh_->deadline_ns) Round(/*writes=*/true);
  }

 private:
  void Violation(const std::string& what) {
    ++out_->violations;
    if (out_->errors.size() < 5) out_->errors.push_back(what);
  }

  /// One round: the workload's fixed sequence of operations.
  void Round(bool writes) {
    switch (sh_->workload) {
      case Workload::kPointUniform:
      case Workload::kPointZipf:
        for (int k = 0; k < kPointTemplates; ++k) {
          int tid = static_cast<int>((round_ + index_ + k) % kPointTemplates);
          PointRead(tid);
        }
        break;
      case Workload::kCohortWide:
        for (int k = 0; k < kCohortTemplates; ++k) {
          int tid = static_cast<int>((round_ + index_ + k) % kCohortTemplates);
          QuerySpec spec = CohortQuery(tid, rng_.Next());
          SendRead(spec.template_id, Render(spec), false, nullptr);
        }
        break;
      case Workload::kIngestDurable:
        if (writes) IngestWrite();
        // Covered reads of existing subscriber-days (March data, which no
        // writer touches): Q2, Q5, Q6 and Q9, kIngestReadsPerWrite of them.
        for (int k = 0; k < kIngestReadsPerWrite; ++k) {
          static const int kExisting[] = {1, 4, 5, 8};
          PointRead(kExisting[(round_ + static_cast<uint64_t>(k)) % 4]);
        }
        break;
    }
    ++round_;
  }

  void PointRead(int tid) {
    if (sh_->workload == Workload::kPointZipf) {
      uint64_t param_seed = sh_->hot[tid][sh_->zipf.Sample(&rng_)];
      QuerySpec spec = PointQuery(tid, param_seed, sh_->subscribers);
      if (rng_.Chance(kRespellShare)) {
        std::string sql = Respell(spec, &rng_);
        SendRead(tid, sql, true, nullptr);
        return;
      }
      SendRead(tid, Render(spec), false, nullptr);
      return;
    }
    SendRead(tid, Render(PointQuery(tid, rng_.Next(), sh_->subscribers)), false,
             nullptr);
  }

  /// Sends one read and checks its answer; `expected` (may be null) is the
  /// exact bag the answer must equal.
  void SendRead(int tid, const std::string& sql, bool respelled,
                const std::vector<Row>* expected) {
    QueryRequest request;
    request.sql = sql;
    int64_t t0 = NowNs();
    auto resp = client_.Query(request);
    int64_t t1 = NowNs();
    if (timed_) {
      ++out_->reads;
      out_->read_us.push_back({t1, static_cast<double>(t1 - t0) / 1000.0});
      if (resp.ok() || resp.status().code() != beas::StatusCode::kIoError) {
        ++out_->received;
      }
    }
    if (!resp.ok()) {
      if (timed_) ++out_->failed;
      Violation(OpName(tid) + " failed: " + resp.status().ToString());
      return;
    }
    if (!resp->covered || resp->eta != 1.0 || resp->degraded || resp->timed_out) {
      Violation(OpName(tid) + " answer not exact and covered: " + sql);
    }
    std::string why;
    if (expected != nullptr && !SameBag(*expected, resp->result.rows, &why)) {
      Violation("read-your-writes: " + sql + ": " + why);
    }
    if (!timed_) return;
    if (resp->result_cache_hit) ++out_->rc_hits;
    if (expected == nullptr) {
      // Stable data: eligible for the full-scan check.
      int kind = (resp->result_cache_hit ? 1 : 0) + (respelled ? 2 : 0);
      auto key = std::make_pair(tid, kind);
      if (out_->oracle_sample.count(key) == 0) {
        out_->oracle_sample[key] = {tid, sql, respelled, resp->result_cache_hit,
                                    resp->result.rows};
      }
    }
    // Reservoir sample for the traced replay.
    ++out_->trace_seen;
    SampledRead s{tid, sql, respelled, resp->result_cache_hit, {}};
    if (out_->trace_sample.size() < kTraceSamplePerClient) {
      out_->trace_sample.push_back(std::move(s));
    } else {
      uint64_t j = sample_rng_.Next() % out_->trace_seen;
      if (j < kTraceSamplePerClient) out_->trace_sample[j] = std::move(s);
    }
  }

  /// ingest_durable: one single-row wire insert into an owned April
  /// subscriber-day, then a covered read of that subscriber-day that must
  /// return exactly the rows this connection acknowledged there.
  void IngestWrite() {
    CdrTable table = static_cast<CdrTable>(round_ % kCdrTables);
    int64_t pnum = 0;
    int day = 0;
    std::vector<Row>* rows = nullptr;
    for (;;) {
      pnum = owned_[rng_.Next() % owned_.size()];
      day = static_cast<int>(rng_.Uniform(1, kDays));
      rows = &key_acked_[{static_cast<int>(table), pnum, day}];
      if (rows->size() < CdrKeyBound(table)) break;  // stay within the ψ bound
    }
    Row row = MakeCdrRow(table, pnum, day, &rng_);
    int64_t t0 = NowNs();
    auto acked = client_.Insert(CdrTableName(table), {row});
    int64_t t1 = NowNs();
    ++out_->writes;
    out_->write_us.push_back({t1, static_cast<double>(t1 - t0) / 1000.0});
    if (acked.ok() || acked.status().code() != beas::StatusCode::kIoError) {
      ++out_->received;
    }
    if (!acked.ok() || *acked != 1) {
      ++out_->failed;
      Violation(std::string("insert failed: ") +
                (acked.ok() ? "acked " + std::to_string(*acked) + " rows"
                            : acked.status().ToString()));
      return;
    }
    rows->push_back(row);
    out_->acked[static_cast<int>(table)].push_back(std::move(row));
    if ((sh_->rows_acked.fetch_add(1) + 1) % kCheckpointEveryRows ==
        kFirstCheckpointRows) {
      std::lock_guard<std::mutex> lock(sh_->ckpt_mu);
      ++sh_->ckpt_pending;
      sh_->ckpt_cv.notify_one();
    }
    std::vector<Row> expected = Project(*rows, CdrProjection(table));
    SendRead(kReadbackTemplate + static_cast<int>(table), CdrKeyQuery(table, pnum, 4, day),
             false, &expected);
  }

  Shared* sh_;
  size_t index_;
  Rng rng_;
  Rng sample_rng_;
  beas::net::Client client_;
  ClientResult* out_ = nullptr;
  bool timed_ = false;
  uint64_t round_ = 0;
  std::vector<int64_t> owned_;
  std::map<std::tuple<int, int64_t, int>, std::vector<Row>> key_acked_;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The traced replay.

struct TraceReport {
  std::vector<Metric> metrics;
  /// Per template: tuples fetched and deduced bounds of the traced requests.
  std::map<int, std::vector<double>> fetched, bounds;
  bool ok = true;
};

/// Replays `sample` one request at a time, each in the result-cache state
/// it met in the timed run (a hit replays against the warm cache; a miss
/// replays with the result cache switched off), with spans around each
/// layer's public function.
TraceReport ReplayTraced(BeasService* svc, uint16_t port,
                         const std::vector<SampledRead>& sample,
                         const std::string& span_path) {
  TraceReport rep;
  Tracer tracer;
  beas::TaskPool pool(beas::ServiceOptions{}.num_workers);
  beas::net::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    rep.ok = false;
    return rep;
  }
  std::map<std::string, std::vector<double>> m;  // per-request values
  uint64_t state_mismatches = 0;
  std::map<int, std::string> fig3;  // template → one step breakdown
  for (const SampledRead& s : sample) {
    tracer.NewRequest();
    std::map<std::string, double> dur;  // inclusive µs per span name
    auto timed = [&](const char* name, auto&& fn) {
      int64_t t0 = NowNs();
      {
        Tracer::Scope span(&tracer, name);
        fn();
      }
      dur[name] += static_cast<double>(NowNs() - t0) / 1000.0;
    };
    QueryRequest request;
    request.sql = s.sql;
    beas::Result<QueryResponse> wire = NotRun();
    beas::Result<QueryResponse> local = NotRun();
    beas::BoundedExecStats stats;
    uint64_t bound = 0;
    size_t response_bytes = 0;
    bool executed = false;
    {
      Tracer::Scope root(&tracer, "request");
      root.Attr("\"template\":\"" + OpName(s.template_id) +
                "\",\"result_cache_hit\":" + (s.hit ? "true" : "false"));
      if (!s.hit) svc->set_result_cache_enabled(false);
      std::string frame;
      timed("net.encode_request", [&] {
        frame = beas::net::EncodeQueryRequestFrame(1, request);
      });
      timed("net.decode_request", [&] {
        auto d = beas::net::DecodeQueryRequest(
            reinterpret_cast<const uint8_t*>(frame.data()) + beas::net::kFrameHeaderSize,
            frame.size() - beas::net::kFrameHeaderSize);
        if (!d.ok()) rep.ok = false;
      });
      timed("net.roundtrip", [&] { wire = client.Query(request); });
      timed("service.query", [&] { local = svc->Query(request); });
      if (!s.hit) svc->set_result_cache_enabled(true);
      if (!wire.ok() || !local.ok()) {
        rep.ok = false;
        continue;
      }
      if (wire->result_cache_hit != s.hit) ++state_mismatches;
      beas::net::WireResponse wr;
      wr.response = *local;
      std::string out_frame;
      timed("net.encode_response", [&] {
        out_frame = beas::net::EncodeResponseFrame(1, wr);
      });
      response_bytes = out_frame.size();
      timed("net.decode_response", [&] {
        auto d = beas::net::DecodeResponse(
            reinterpret_cast<const uint8_t*>(out_frame.data()) +
                beas::net::kFrameHeaderSize,
            out_frame.size() - beas::net::kFrameHeaderSize);
        if (!d.ok()) rep.ok = false;
      });
      // The SQL front of the service, re-timed: mask, then canonicalize
      // (canonical form + render + re-mask, as the service runs it).
      beas::Result<beas::SqlTemplate> masked = NotRun();
      timed("sql.mask", [&] { masked = beas::MaskSqlLiterals(s.sql); });
      std::string exec_sql = s.sql;
      if (masked.ok()) {
        timed("sql.canonicalize", [&] {
          beas::CanonicalizedTemplate canon;
          timed("sql.canonical_form",
                [&] { canon = beas::CanonicalizeTemplate(*masked); });
          if (!canon.changed) return;
          beas::Result<std::string> rendered = NotRun();
          timed("sql.render", [&] { rendered = beas::RenderTemplate(canon.tmpl); });
          if (!rendered.ok()) return;
          beas::Result<beas::SqlTemplate> remasked = NotRun();
          timed("sql.remask", [&] { remasked = beas::MaskSqlLiterals(*rendered); });
          if (remasked.ok() && remasked->text == canon.tmpl.text) exec_sql = *rendered;
        });
      }
      // The bounded layer, re-timed without the plan cache: bind, the
      // uncached coverage search, and ExecuteCovered with stats.
      beas::Database::ReadScope lock(svc->db());
      beas::Result<beas::BoundQuery> bound_query = NotRun();
      timed("binder.bind", [&] { bound_query = svc->db()->Bind(exec_sql); });
      if (!bound_query.ok()) {
        rep.ok = false;
        continue;
      }
      beas::Result<beas::CoverageResult> coverage = NotRun();
      timed("bounded.check", [&] { coverage = svc->session().Check(*bound_query); });
      if (!coverage.ok() || !coverage->covered) {
        rep.ok = false;
        continue;
      }
      bound = coverage->plan.total_access_bound;
      timed("bounded.exec", [&] {
        beas::BoundedExecOptions opts;
        opts.probe_pool = &pool;
        executed =
            svc->session().ExecuteCovered(*bound_query, coverage->plan, opts, &stats).ok();
      });
      {
        std::string steps;
        std::vector<const beas::OperatorStats*> todo = {&stats.root};
        while (!todo.empty()) {
          const beas::OperatorStats* op = todo.back();
          todo.pop_back();
          char buf[96];
          std::snprintf(buf, sizeof(buf), "\",\"self_ms\":%.4f,\"tuples\":%llu}",
                        op->self_millis,
                        static_cast<unsigned long long>(op->tuples_accessed));
          steps += std::string(steps.empty() ? "" : ",") + "{\"label\":\"" +
                   JsonEscape(op->label) + buf;
          for (const auto& c : op->children) todo.push_back(&c);
        }
        tracer.AttrLast("\"deduced_bound\":" + std::to_string(bound) +
                        ",\"tuples_fetched\":" + std::to_string(stats.tuples_fetched) +
                        ",\"keys_probed\":" + std::to_string(stats.keys_probed) +
                        ",\"steps\":[" + steps + "]");
        if (fig3.count(s.template_id) == 0) fig3[s.template_id] = stats.root.ToString(2);
      }
    }
    if (!executed) {
      rep.ok = false;
      continue;
    }
    std::string why;
    if (!WithinBound(stats.tuples_fetched, bound, &why)) {
      std::fprintf(stderr, "BOUND VIOLATION %s: %s\n", s.sql.c_str(), why.c_str());
      rep.ok = false;
    }
    double codec = dur["net.encode_request"] + dur["net.decode_request"] +
                   dur["net.encode_response"] + dur["net.decode_response"];
    m["net.server_overhead_us"].push_back(dur["net.roundtrip"] - dur["service.query"]);
    m["net.codec_us"].push_back(codec);
    m["net.response_bytes"].push_back(static_cast<double>(response_bytes));
    m["sql.mask_us"].push_back(dur["sql.mask"]);
    m["sql.canonicalize_us"].push_back(dur["sql.canonicalize"]);
    m["service.query_us"].push_back(dur["service.query"]);
    m["service.unattributed_us"].push_back(
        dur["service.query"] - dur["sql.mask"] - dur["sql.canonicalize"] -
        (s.hit ? 0.0 : dur["bounded.exec"]));
    m["binder.bind_us"].push_back(dur["binder.bind"]);
    m["bounded.check_us"].push_back(dur["bounded.check"]);
    m["bounded.exec_us"].push_back(dur["bounded.exec"]);
    // Fig. 3: the fetch chain's own timer, and the rest of ExecuteCovered
    // (step-program compilation and the relational tail).
    m["bounded.fetch_chain_us"].push_back(stats.root.total_millis * 1000.0);
    m["bounded.tail_us"].push_back(dur["bounded.exec"] - stats.root.total_millis * 1000.0);
    rep.fetched[s.template_id].push_back(static_cast<double>(stats.tuples_fetched));
    rep.bounds[s.template_id].push_back(static_cast<double>(bound));
    m["bounded.keys_probed"].push_back(static_cast<double>(stats.keys_probed));
    m["bounded.tuples_fetched"].push_back(static_cast<double>(stats.tuples_fetched));
    m["bounded.deduced_bound"].push_back(static_cast<double>(bound));
    m["bounded.fetch_to_bound_ratio"].push_back(
        bound == 0 ? 0 : static_cast<double>(stats.tuples_fetched) / static_cast<double>(bound));
    (s.hit ? m["hit.query_us"] : m["miss.query_us"]).push_back(dur["service.query"]);
    (s.hit ? m["hit.roundtrip_us"] : m["miss.roundtrip_us"]).push_back(dur["net.roundtrip"]);
  }
  double span_cost = Tracer::SpanCostUs();
  double overhead = span_cost * tracer.SpansPerRequest();

  std::printf("traced replay: %zu requests, %.1f spans/request, %.3f us/span, "
              "cache-state mismatches %llu\n",
              sample.size(), tracer.SpansPerRequest(), span_cost,
              static_cast<unsigned long long>(state_mismatches));
  std::printf("median self time per span (us):\n");
  for (const auto& [name, v] : tracer.SelfTimesUs()) {
    std::printf("  %-24s %10.2f  (n=%zu)\n", name.c_str(), Median(v), v.size());
  }
  for (const char* k : {"hit.roundtrip_us", "hit.query_us", "miss.roundtrip_us",
                        "miss.query_us"}) {
    if (m.count(k)) {
      std::printf("  %-24s %10.2f  (n=%zu)\n", k, Median(m[k]), m[k].size());
    }
  }
  std::printf("Fig. 3 step breakdown (one traced request per template):\n");
  for (const auto& [tid, text] : fig3) {
    std::printf("  %s\n%s", OpName(tid).c_str(), text.c_str());
  }
  if (!tracer.Write(span_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", span_path.c_str());
    rep.ok = false;
  } else {
    std::printf("spans written to %s\n", span_path.c_str());
  }

  const char* const kUs = "us";
  const std::vector<std::pair<const char*, const char*>> kReported = {
      {"net.server_overhead_us", kUs}, {"net.codec_us", kUs},
      {"net.response_bytes", "bytes"}, {"sql.mask_us", kUs},
      {"sql.canonicalize_us", kUs},    {"service.query_us", kUs},
      {"service.unattributed_us", kUs}, {"binder.bind_us", kUs},
      {"bounded.check_us", kUs},       {"bounded.exec_us", kUs},
      {"bounded.fetch_chain_us", kUs}, {"bounded.tail_us", kUs},
      {"bounded.keys_probed", "count"}, {"bounded.tuples_fetched", "count"},
      {"bounded.deduced_bound", "count"}, {"bounded.fetch_to_bound_ratio", "ratio"}};
  for (const auto& [name, unit] : kReported) {
    rep.metrics.push_back({name, Median(m[name]), unit});
  }
  // The largest ratio, not the median: the property must hold for all.
  double worst = 0;
  for (double r : m["bounded.fetch_to_bound_ratio"]) worst = std::max(worst, r);
  rep.metrics.back().value = worst;
  rep.metrics.push_back({"trace.overhead_us", overhead, kUs});
  return rep;
}

// ---------------------------------------------------------------------------
// One benchmark run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool fig4 = false;
  std::string out = ".bench_out";
};

int RunWorkload(const Args& args, Workload workload) {
  const size_t subscribers = SubscribersAt(kScaleFactor);
  const size_t clients = NumClients(workload == Workload::kCohortWide);
  fs::create_directories(args.out);
  const std::string data_dir = args.out + "/data-" + WorkloadName(workload) +
                               "-" + std::to_string(::getpid());
  const bool durable = workload == Workload::kIngestDurable;

  std::printf("workload %s seed %llu seconds %d trace %d\n", WorkloadName(workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("machine: nproc %u, build %s, compiler gcc-compatible %s, "
              "storage shards %zu, clients %zu\n",
              std::thread::hardware_concurrency(), TLCBENCH_BUILD_TYPE, __VERSION__,
              beas::ConfiguredShardCount(), clients);

  // The inputs: generated before the clock starts; they are the
  // benchmark's, not the program's, work.
  std::vector<TableData> tables = GenerateTables(args.seed, subscribers);
  std::map<std::string, size_t> initial_rows;
  std::map<std::string, std::string> all_columns;  // "t.a, t.b, ..."
  size_t total_rows = 0;
  for (const TableData& t : tables) {
    initial_rows[t.name] = t.rows.size();
    for (const beas::Column& c : t.schema.columns()) {
      std::string& list = all_columns[t.name];
      list += (list.empty() ? "" : ", ") + t.name + "." + c.name;
    }
    total_rows += t.rows.size();
  }
  std::printf("dataset: SF %.0f, %zu subscribers, %zu rows\n", kScaleFactor,
              subscribers, total_rows);

  // --- Set-up (timed): empty service → loaded, indexed, checkpointed,
  // serving. ---
  beas::ServiceOptions options;
  if (durable) {
    fs::remove_all(data_dir);
    fs::create_directories(data_dir);
    options.durability.dir = data_dir;
    std::printf("durability: fsync %s, data dir filesystem %s\n",
                options.durability.fsync ? "on" : "off",
                FilesystemOf(data_dir).c_str());
  }
  SetupTimes setup;
  int64_t setup0 = NowNs();
  auto svc = std::make_unique<BeasService>(options);
  beas::Status st = durable && !svc->durable() ? svc->durability_status()
                                                : LoadService(svc.get(), &tables, &setup);
  auto server = std::make_unique<beas::net::Server>(svc.get());
  if (st.ok()) st = server->Start();
  setup.total_s = SecondsSince(setup0);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("setup: %.3f s (load %.3f, index %.3f, checkpoint %.3f)\n",
              setup.total_s, setup.load_s, setup.index_s, setup.checkpoint_s);

  // --- The timed window. ---
  Shared sh;
  sh.workload = workload;
  sh.seed = args.seed;
  sh.clients = clients;
  sh.subscribers = subscribers;
  sh.port = server->port();
  sh.svc = svc.get();
  sh.hot.resize(kPointTemplates);
  for (int t = 0; t < kPointTemplates; ++t) {
    for (size_t k = 0; k < kZipfHotSet; ++k) {
      sh.hot[t].push_back(MixSeed(args.seed, 0x407ull, t * 1000 + k));
    }
  }
  std::vector<ClientResult> results(clients);
  std::vector<std::unique_ptr<ClientLoop>> loops;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    loops.push_back(std::make_unique<ClientLoop>(&sh, c));
  }
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] { loops[c]->Run(&results[c]); });
  }
  std::thread checkpointer([&] { sh.CheckpointLoop(); });
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    sh.cv.wait(lock, [&] { return sh.warmed == clients; });
  }
  const uint64_t net0 = svc->net_gauges()->requests_total.load();
  const beas::ResultCacheStats rc0 = svc->result_cache_stats();
  const beas::PlanCacheStats pc0 = svc->cache_stats();
  const beas::ServiceCounters sc0 = svc->service_counters();
  const beas::durability::DurabilityCounters dc0 = svc->durability_counters();
  const uint64_t canon0 = svc->template_canonicalizations();
  const double cpu0 = CpuSeconds();
  const int64_t window0 = NowNs();
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.deadline_ns = window0 + static_cast<int64_t>(args.seconds) * 1000000000LL;
    sh.go = true;
  }
  sh.cv.notify_all();
  for (std::thread& t : threads) t.join();
  const double window_s = SecondsSince(window0);
  {
    std::lock_guard<std::mutex> lock(sh.ckpt_mu);
    sh.ckpt_stop = true;
  }
  sh.ckpt_cv.notify_one();
  checkpointer.join();
  const double cpu_s = CpuSeconds() - cpu0;
  const uint64_t net1 = svc->net_gauges()->requests_total.load();
  const beas::ResultCacheStats rc1 = svc->result_cache_stats();
  const beas::PlanCacheStats pc1 = svc->cache_stats();
  const beas::ServiceCounters sc1 = svc->service_counters();
  const beas::durability::DurabilityCounters dc1 = svc->durability_counters();
  const uint64_t canon1 = svc->template_canonicalizations();
  const double peak_rss_mb = PeakRssMb();
  // After the owed checkpoints, so that the store holds a whole number of
  // them.
  const double store_mb = durable ? DirMb(data_dir) : 0;

  // --- Merge the clients' records. ---
  ClientResult all;
  std::vector<SampledRead> trace_sample;
  std::map<std::pair<int, int>, SampledRead> oracle;
  for (ClientResult& r : results) {
    all.reads += r.reads;
    all.writes += r.writes;
    all.failed += r.failed;
    all.received += r.received;
    all.rc_hits += r.rc_hits;
    all.violations += r.violations;
    all.read_us.insert(all.read_us.end(), r.read_us.begin(), r.read_us.end());
    all.write_us.insert(all.write_us.end(), r.write_us.begin(), r.write_us.end());
    for (auto& e : r.errors) all.errors.push_back(e);
    for (auto& [k, v] : r.oracle_sample) oracle.emplace(k, std::move(v));
    for (auto& s : r.trace_sample) trace_sample.push_back(std::move(s));
  }
  const uint64_t attempted = all.reads + all.writes;
  bool correct = all.violations == 0;
  auto fail = [&](const std::string& what) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  };
  for (const std::string& e : all.errors) fail(e);
  for (const std::string& e : sh.checkpoint_errors) fail("checkpoint: " + e);

  // --- Checks on the wire accounting. ---
  if (attempted != all.received || net1 - net0 != attempted) {
    fail("requests sent " + std::to_string(attempted) + ", responses received " +
         std::to_string(all.received) + ", server requests_total delta " +
         std::to_string(net1 - net0));
  }
  if (rc1.hits - rc0.hits != all.rc_hits) {
    fail("responses flagged as result-cache hits " + std::to_string(all.rc_hits) +
         " != result cache hit counter delta " + std::to_string(rc1.hits - rc0.hits));
  }
  if (all.read_us.size() < 1000) {
    fail("only " + std::to_string(all.read_us.size()) +
         " read samples: fewer than ten lie beyond p99");
  }

  // --- Full-scan check of a sample covering every template. ---
  std::vector<double> fullscan_ms, fullscan_tuples;
  std::map<int, std::vector<double>> fullscan_by_template;
  std::set<int> templates_checked;
  {
    beas::Database::ReadScope lock(svc->db());
    for (const auto& [key, s] : oracle) {
      int64_t t0 = NowNs();
      auto ref = svc->db()->Query(s.sql);
      fullscan_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      std::string why;
      if (!ref.ok()) {
        fail("full scan of " + s.sql + ": " + ref.status().ToString());
        continue;
      }
      fullscan_tuples.push_back(static_cast<double>(ref->tuples_accessed));
      fullscan_by_template[s.template_id].push_back(
          static_cast<double>(ref->tuples_accessed));
      if (!SameBag(ref->rows, s.rows, &why)) {
        fail(OpName(s.template_id) + (s.hit ? " (result-cache hit" : " (miss") +
             (s.respelled ? ", respelled) " : ") ") + s.sql + ": " + why);
      }
      templates_checked.insert(s.template_id);
    }
  }
  size_t expect_templates = workload == Workload::kCohortWide ? kCohortTemplates
                            : workload == Workload::kIngestDurable ? 4
                                                                   : kPointTemplates;
  if (templates_checked.size() != expect_templates) {
    fail("full-scan sample covers " + std::to_string(templates_checked.size()) +
         " of " + std::to_string(expect_templates) + " templates");
  }
  std::printf("full-scan check: %zu answers over %zu templates\n", oracle.size(),
              templates_checked.size());

  // --- ingest_durable: every acknowledged row is there, before and after
  // a restart. ---
  uint64_t acked_total = 0;
  std::vector<Row> acked_by_conn[kCdrTables][kMaxClients];
  for (int t = 0; t < kCdrTables; ++t) {
    for (size_t c = 0; c < clients; ++c) {
      acked_by_conn[t][c] = results[c].acked[t];
      acked_total += results[c].acked[t].size();
    }
  }
  auto check_ingest = [&](BeasService* s, const char* when) {
    beas::Database::ReadScope lock(s->db());
    for (int t = 0; t < kCdrTables; ++t) {
      const std::string name = CdrTableName(static_cast<CdrTable>(t));
      size_t acked = 0;
      for (size_t c = 0; c < clients; ++c) acked += acked_by_conn[t][c].size();
      auto count = s->db()->Query("SELECT count(*) AS n FROM " + name);
      if (!count.ok() || count->rows.size() != 1 ||
          static_cast<size_t>(count->rows[0][0].AsInt64()) != initial_rows[name] + acked) {
        fail(std::string(when) + ": full-scan count of " + name + " is not " +
             std::to_string(initial_rows[name]) + " + " + std::to_string(acked));
      }
      auto written = s->db()->Query("SELECT " + all_columns[name] + " FROM " + name + " WHERE " + name +
                                    ".date >= '2016-04-01'");
      if (!written.ok()) {
        fail(std::string(when) + ": readback of " + name + ": " +
             written.status().ToString());
        continue;
      }
      std::vector<Row> by_conn[kMaxClients];
      for (Row& row : written->rows) {
        size_t owner = static_cast<size_t>(row[0].AsInt64() - kFirstPnum) % clients;
        by_conn[owner].push_back(std::move(row));
      }
      for (size_t c = 0; c < clients; ++c) {
        std::string why;
        if (!SameBag(acked_by_conn[t][c], by_conn[c], &why)) {
          fail(std::string(when) + ": connection " + std::to_string(c) +
               " rows of " + name + " != its acknowledged rows: " + why);
        }
      }
    }
  };
  if (durable) check_ingest(svc.get(), "before restart");

  // --- The traced replay (per-layer numbers). ---
  TraceReport trace;
  if (args.trace) {
    std::string span_path = args.out + "/spans-" + WorkloadName(workload) + "-seed" +
                            std::to_string(args.seed) + ".jsonl";
    trace = ReplayTraced(svc.get(), server->port(), trace_sample, span_path);
    if (!trace.ok) fail("traced replay");
    std::printf("data accessed per template (medians): BEAS tuples fetched, "
                "deduced bound, full-scan tuples accessed\n");
    for (const auto& [tid, fetched] : trace.fetched) {
      std::printf("  %-20s %10.0f %10.0f %12.0f\n", OpName(tid).c_str(),
                  Median(fetched), Median(trace.bounds[tid]),
                  Median(fullscan_by_template[tid]));
    }
  }
  server->Stop();
  server.reset();

  // --- ingest_durable: restart and recovery. ---
  double recovery_s = 0;
  uint64_t replayed = 0;
  if (durable) {
    svc.reset();
    int64_t r0 = NowNs();
    svc = std::make_unique<BeasService>(options);
    bool first_ok = svc->durable();
    // The first checked answer: connection 0's rows of one subscriber-day.
    if (first_ok && !acked_by_conn[2][0].empty()) {
      const Row& last = acked_by_conn[2][0].back();
      int64_t pnum = last[0].AsInt64();
      int day = static_cast<int>(last[1].AsDate() % 100);
      std::vector<Row> expected;
      for (const Row& row : acked_by_conn[2][0]) {
        if (row[0].AsInt64() == pnum && row[1].AsDate() == last[1].AsDate()) {
          expected.push_back(row);
        }
      }
      QueryRequest request;
      request.sql = CdrKeyQuery(CdrTable::kDataUsage, pnum, 4, day);
      auto resp = svc->Query(request);
      std::string why;
      first_ok = resp.ok() && SameBag(Project(expected, CdrProjection(CdrTable::kDataUsage)),
                                      resp->result.rows, &why);
    }
    recovery_s = SecondsSince(r0);
    replayed = svc->durability_counters().recovery_replayed_records;
    if (!first_ok) fail("recovered service did not answer the first read correctly");
    check_ingest(svc.get(), "after recovery");
  }
  svc.reset();
  if (durable) fs::remove_all(data_dir);

  // --- Report. ---
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double reads = static_cast<double>(all.reads);
  const double writes = static_cast<double>(all.writes);
  const WindowStats read_lat = Summarize(all.read_us, window0, args.seconds);
  const WindowStats write_lat = Summarize(all.write_us, window0, args.seconds);
  std::vector<Metric> e2e = {
      {"setup_s", setup.total_s, "s"},
      {"read_qps", read_lat.rate, "req/s"},
      {"read_p50_ms", read_lat.p50_us / 1000.0, "ms"},
      {"read_p99_ms", read_lat.p99_us / 1000.0, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::vector<Metric> layers = {
      {"write_rows_per_s", write_lat.rate, "rows/s"},
      {"write_p50_ms", write_lat.p50_us / 1000.0, "ms"},
      {"write_p99_ms", write_lat.p99_us / 1000.0, "ms"},
      {"recovery_s", recovery_s, "s"},
      {"store_mb", store_mb, "MB"},
      {"sql.canonicalized_ratio", per(static_cast<double>(canon1 - canon0), reads), "ratio"},
      {"service.result_cache_hit_ratio",
       per(static_cast<double>(rc1.hits - rc0.hits),
           static_cast<double>(rc1.hits - rc0.hits + rc1.misses - rc0.misses)),
       "ratio"},
      {"service.result_cache_invalidations_per_write",
       per(static_cast<double>(rc1.invalidations - rc0.invalidations), writes), "count/row"},
      {"service.result_cache_bytes", static_cast<double>(rc1.bytes), "bytes"},
      {"service.plan_cache_hit_ratio",
       per(static_cast<double>(pc1.hits - pc0.hits),
           static_cast<double>(pc1.hits - pc0.hits + pc1.misses - pc0.misses)),
       "ratio"},
      {"service.admission_degraded",
       static_cast<double>(sc1.queries_degraded_total - sc0.queries_degraded_total), "count"},
      {"service.admission_rejected",
       static_cast<double>(sc1.queries_rejected_total - sc0.queries_rejected_total), "count"},
      {"engine.fullscan_ms", Median(fullscan_ms), "ms"},
      {"engine.tuples_accessed", Median(fullscan_tuples), "count"},
      {"durability.rows_per_group_commit",
       per(writes, static_cast<double>(dc1.wal_group_commits_total - dc0.wal_group_commits_total)),
       "rows"},
      {"durability.fsyncs_per_row",
       per(static_cast<double>(dc1.wal_fsyncs_total - dc0.wal_fsyncs_total), writes), "count/row"},
      {"durability.wal_bytes_per_row",
       per(static_cast<double>(dc1.wal_bytes_total - dc0.wal_bytes_total), writes), "bytes/row"},
      {"durability.checkpoint_ms", Median(sh.checkpoint_ms), "ms"},
      {"durability.recovery_replayed_records", static_cast<double>(replayed), "count"},
      {"durability.wal_retries",
       static_cast<double>(dc1.wal_retries_total - dc0.wal_retries_total), "count"},
      {"setup.load_s", setup.load_s, "s"},
      {"setup.index_s", setup.index_s, "s"},
      {"setup.checkpoint_s", setup.checkpoint_s, "s"},
      {"process.cpu_ms_per_kreq", per(cpu_s * 1000.0, (reads + writes) / 1000.0), "ms"},
  };
  for (Metric& m : trace.metrics) layers.push_back(m);

  std::printf("window %.3f s: %llu reads, %llu writes (%llu rows acked), %llu failed, "
              "%llu result-cache hits; read_p99_ms is the median over %zu slices "
              "of %zu+ samples\n",
              window_s, static_cast<unsigned long long>(all.reads),
              static_cast<unsigned long long>(all.writes),
              static_cast<unsigned long long>(acked_total),
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.rc_hits), read_lat.p99_slices,
              all.read_us.size() / read_lat.p99_slices);
  for (const Metric& m : e2e) std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : layers) std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("reads completed per second:");
  for (double n : read_lat.per_second) std::printf(" %.0f", n);
  std::printf("\nread p50 of each second (ms):");
  for (double us : read_lat.p50_per_second) std::printf(" %.3f", us / 1000.0);
  if (durable) {
    std::printf("\nwrite p50 of each second (ms):");
    for (double us : write_lat.p50_per_second) std::printf(" %.3f", us / 1000.0);
    auto mean = [](const std::vector<Sample>& v) {
      double sum = 0;
      for (const Sample& x : v) sum += x.us;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    std::printf("\nmean latency (us): read %.1f, write %.1f", mean(all.read_us),
                mean(all.write_us));
    std::printf("\ncheckpoints (start s in the window, ms):");
    for (size_t i = 0; i < sh.checkpoint_ms.size(); ++i) {
      std::printf(" %.1f:%.0f",
                  static_cast<double>(sh.checkpoint_start_ns[i] - window0) / 1e9,
                  sh.checkpoint_ms[i]);
    }
  }
  std::printf("\nread p99 of each slice (ms):");
  for (double us : read_lat.p99_per_slice) std::printf(" %.3f", us / 1000.0);
  std::printf("\ncorrect: %s\n", correct ? "yes" : "NO");
  PrintJson(correct, attempted, all.failed, args.trace ? layers : e2e);
  return 0;
}

// ---------------------------------------------------------------------------
// --fig4: in-process latency of point and cohort templates as |D| grows.

int RunFig4(const Args& args) {
  std::printf("Fig. 4 shape: in-process BeasService::Query, result cache off, "
              "median us over the templates' requests\n");
  std::printf("%6s %10s %10s %12s %12s %12s\n", "SF", "rows", "setup_s",
              "point_us", "Q1_us", "cohort_us");
  for (double sf : {2.0, 8.0, 32.0}) {
    size_t subs = SubscribersAt(sf);
    std::vector<TableData> tables = GenerateTables(args.seed, subs);
    size_t rows = 0;
    for (const TableData& t : tables) rows += t.rows.size();
    SetupTimes setup;
    int64_t t0 = NowNs();
    BeasService svc;
    if (!LoadService(&svc, &tables, &setup).ok()) return 1;
    double setup_s = SecondsSince(t0);
    svc.set_result_cache_enabled(false);
    Rng rng(MixSeed(args.seed, 0xF164));
    auto time_us = [&](const QuerySpec& spec) {
      QueryRequest request;
      request.sql = Render(spec);
      int64_t q0 = NowNs();
      auto r = svc.Query(request);
      double us = static_cast<double>(NowNs() - q0) / 1000.0;
      return r.ok() && r->covered ? us : -1.0;
    };
    std::vector<double> point, q1, cohort;
    for (int rep = 0; rep < 300; ++rep) {
      for (int t = 1; t < kPointTemplates; ++t) {
        if (t == 6) continue;  // Q7 fans out over a business cohort
        point.push_back(time_us(PointQuery(t, rng.Next(), subs)));
      }
      q1.push_back(time_us(PointQuery(0, rng.Next(), subs)));
      if (rep < 30) cohort.push_back(time_us(CohortQuery(1, rng.Next())));
    }
    if (*std::min_element(point.begin(), point.end()) < 0 ||
        *std::min_element(cohort.begin(), cohort.end()) < 0) {
      std::fprintf(stderr, "a fig4 query failed or was not covered\n");
      return 1;
    }
    std::printf("%6.0f %10zu %10.2f %12.1f %12.1f %12.1f\n", sf, rows, setup_s,
                Median(point), Median(q1), Median(cohort));
  }
  return 0;
}

}  // namespace
}  // namespace tlcbench

int main(int argc, char** argv) {
  using namespace tlcbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") args.workload = next();
    else if (a == "--seed") args.seed = std::stoull(next());
    else if (a == "--seconds") args.seconds = std::stoi(next());
    else if (a == "--trace") args.trace = next() == "1";
    else if (a == "--out") args.out = next();
    else if (a == "--fig4") args.fig4 = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  // The checks must be able to fail before their passing means anything.
  std::string report;
  int broken = SelfTest(&report);
  std::printf("%s", report.c_str());
  if (broken != 0) {
    std::fprintf(stderr, "%d benchmark checks accept wrong input\n", broken);
    return 3;
  }
  if (args.fig4) return RunFig4(args);
  Workload w;
  if (!ParseWorkload(args.workload, &w) || args.seconds < 1) {
    std::fprintf(stderr, "usage: --workload point_uniform|point_zipf|cohort_wide|"
                         "ingest_durable --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return RunWorkload(args, w);
}
