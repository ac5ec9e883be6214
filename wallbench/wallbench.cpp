// Wall-clock benchmark: SequentialEngine vs ThreadedEngine vs
// DistributedEngine on one workload per invocation, every parallel run
// checked against the sequential oracle.  README.md in this directory lists
// the workloads, the metrics and the layer each metric belongs to.
//
//   wallbench --workload iir --seed 1 --seconds 15 --trace 0 --out DIR
//             --sock DIR
//   wallbench --selftest --out DIR --sock DIR
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <sched.h>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "circuits/iir.h"
#include "circuits/random_circuit.h"
#include "frontend/elaborator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "partition/cluster.h"
#include "partition/partition.h"
#include "pdes/cluster.h"
#include "pdes/distributed.h"
#include "pdes/machine.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "vhdl/kernel.h"
#include "vhdl/monitor.h"

using namespace vsim;

namespace {

using Clock = std::chrono::steady_clock;
using obs::Json;
using obs::JsonObject;

constexpr std::size_t kWorkers = 4;       // threaded workers and ranks
constexpr std::size_t kModelWorkers = 16;  // the paper's machine size
constexpr std::size_t kModelHistory = 128;  // as in the figure benches
constexpr int kMinIterations = 3;
// Sequential runs are short; they come in bursts of at least this long,
// two per iteration, so their median rests on many samples spread over the
// run.
constexpr double kSeqBurstSeconds = 0.25;
// setup_s is a median over at least this many set-ups, within a budget.
constexpr std::size_t kSetupSamples = 15;
constexpr double kSetupBudgetSeconds = 2.0;
// Ranks on a loaded 4-core host can go quiet for a scheduler quantum or
// several; a dead-rank verdict there would measure failover, not the engine.
constexpr std::uint32_t kHeartbeatTimeoutMs = 10'000;
// The wall-clock engines declare deadlock after this many rounds without
// progress.  At the library default (3) a worker descheduled for a few
// rounds is enough for a false verdict: one threaded rtl_source run in three
// ended that way on a 4-core host.  A real deadlock still stops the run.
constexpr std::uint32_t kDeadlockRounds = 1000;
constexpr int kWatchdogSeconds = 60;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace of each layer call, kept in memory and
// written once at exit.  Timing happens whether or not spans are kept.

class SpanLog {
 public:
  SpanLog(bool on, std::string run_id)
      : on_(on), run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  /// A span open for the lifetime of this object; spans opened meanwhile
  /// become its children.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.on_) return;
      id_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({name, log_.rel(Clock::now()), 0.0,
                             log_.open_.empty() ? -1 : log_.open_.back()});
      log_.open_.push_back(id_);
    }
    ~Scope() {
      if (id_ < 0) return;
      log_.spans_[id_].end = log_.rel(Clock::now());
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_ = -1;
  };

  /// Times `fn`, records a span when tracing, returns the seconds it took.
  template <class Fn>
  double timed(const char* name, Fn&& fn) {
    const Scope span(*this, name);
    const Clock::time_point t0 = Clock::now();
    fn();
    return seconds_since(t0);
  }

  [[nodiscard]] Json to_json() const {
    JsonArray arr;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      arr.push_back(JsonObject{{"id", static_cast<std::uint64_t>(i)},
                               {"name", s.name},
                               {"start_s", s.start},
                               {"end_s", s.end},
                               {"parent", s.parent},
                               {"run", run_id_}});
    }
    return JsonObject{{"run", run_id_}, {"spans", std::move(arr)}};
  }

 private:
  using JsonArray = obs::JsonArray;
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  double rel(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  bool on_;
  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Watchdog: a hung engine run cannot be reclaimed in-process, so expiry saves
// the engine's dump as an artifact, prints a failed result, stops any rank
// processes and exits non-zero.

std::string g_artifact_dir;  // set once in main
std::string g_artifact_tag;
std::uint64_t g_attempted = 0;
std::uint64_t g_failed = 0;

void kill_children() {
  const pid_t self = getpid();
  if (DIR* d = opendir("/proc")) {
    while (dirent* e = readdir(d)) {
      const pid_t pid = static_cast<pid_t>(std::atoi(e->d_name));
      if (pid <= 0) continue;
      const std::string path = std::string("/proc/") + e->d_name + "/stat";
      std::FILE* f = std::fopen(path.c_str(), "r");
      if (f == nullptr) continue;
      int p = 0, ppid = 0;
      char comm[256];
      char state = 0;
      if (std::fscanf(f, "%d %255s %c %d", &p, comm, &state, &ppid) == 4 &&
          ppid == self)
        kill(pid, SIGKILL);
      std::fclose(f);
    }
    closedir(d);
  }
  while (waitpid(-1, nullptr, 0) > 0) {
  }
}

class Watchdog {
 public:
  using DumpFn = std::function<void(std::FILE*)>;
  Watchdog(std::string label, DumpFn dump)
      : label_(std::move(label)), dump_(std::move(dump)),
        thread_([this] { run(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, std::chrono::seconds(kWatchdogSeconds),
                     [this] { return done_; }))
      return;
    const std::string path =
        g_artifact_dir + "/watchdog-" + g_artifact_tag + ".txt";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s: no result after %d s\n", label_.c_str(),
                   kWatchdogSeconds);
      if (dump_) dump_(f);
      std::fclose(f);
    }
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(g_attempted),
                static_cast<unsigned long long>(g_failed + 1));
    std::fflush(stdout);
    kill_children();
    std::_Exit(3);
  }

  std::string label_;
  DumpFn dump_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Single-threaded samples (sequential runs, set-ups) rotate over the CPUs.
/// On a shared host each core's speed drifts on its own, over seconds, and a
/// thread left to the scheduler stays on one core long enough for all of a
/// run's samples to see only that core.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    sched_getaffinity(0, sizeof(all_), &all_);
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }

  /// Runs `fn` pinned to the next CPU, then restores the full mask (threads
  /// and ranks started later inherit the caller's mask).
  template <class Fn>
  auto on_next_cpu(Fn&& fn) {
    if (!cpus_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[next_++ % cpus_.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    auto result = fn();
    sched_setaffinity(0, sizeof(all_), &all_);
    return result;
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

/// Seconds spent in each set-up layer of one engine-ready job.
struct Layers {
  double build = 0, elaborate = 0, finalize = 0, cluster = 0, fuse = 0,
         place = 0, construct = 0;
  [[nodiscard]] double total() const {
    return build + elaborate + finalize + cluster + fuse + place + construct;
  }
};

using Probes = std::vector<vhdl::SignalId>;

struct Workload {
  const char* name;
  PhysTime until;
  /// Fused into ClusterLps by partition::cluster_bfs + pdes::fuse_clusters.
  bool clustered;
  /// Builds the model into `d` and returns the oracle probe set; charges
  /// its time to `t.build` or `t.elaborate`.
  Probes (*build)(vhdl::Design& d, std::uint64_t seed, Layers& t,
                  SpanLog& log);
};

Probes build_iir(vhdl::Design& d, std::uint64_t seed, Layers& t,
                 SpanLog& log) {
  Probes probes;
  t.build = log.timed("build", [&] {
    circuits::IirParams p;
    p.input_seed = seed;
    probes = circuits::build_iir(d, p).output;
  });
  return probes;
}

template <std::size_t kSignals>
Probes build_netlist(vhdl::Design& d, std::uint64_t seed, Layers& t,
                     SpanLog& log) {
  Probes probes;
  t.build = log.timed("build", [&] {
    probes = circuits::build_random_circuit(
                 d, circuits::sized_random_params(kSignals, seed))
                 .observable;
  });
  return probes;
}

constexpr std::size_t kRtlLanes = 16;

/// Behavioural VHDL with kRtlLanes lanes of clocked processes: integer
/// variables, nested loops and vector arithmetic, with per-lane constants
/// drawn from `seed`.  Lane i's mixer reads lane i+1's accumulator, so a
/// partitioned run has cross-worker traffic.
std::string rtl_source(std::uint64_t seed) {
  std::uint64_t s = seed;
  std::string src =
      "entity rtl is end rtl;\n"
      "architecture a of rtl is\n"
      "  signal clk : std_logic := '0';\n";
  auto bits8 = [](std::uint64_t v) {
    std::string b;
    for (int i = 7; i >= 0; --i) b += ((v >> i) & 1) ? '1' : '0';
    return b;
  };
  for (std::size_t i = 0; i < kRtlLanes; ++i) {
    const std::string n = std::to_string(i);
    src += "  signal cnt" + n + " : std_logic_vector(7 downto 0) := \"" +
           bits8(splitmix(s)) + "\";\n";
    for (const char* sig : {"scr", "acc", "mix"})
      src += std::string("  signal ") + sig + n +
             " : std_logic_vector(7 downto 0) := \"00000000\";\n";
  }
  src +=
      "begin\n"
      "  clkgen: process begin\n"
      "    clk <= '1'; wait for 5 ns;\n"
      "    clk <= '0'; wait for 5 ns;\n"
      "  end process;\n";
  for (std::size_t i = 0; i < kRtlLanes; ++i) {
    const std::string n = std::to_string(i);
    const std::string next = std::to_string((i + 1) % kRtlLanes);
    const auto k = [&](std::uint64_t lo, std::uint64_t span) {
      return std::to_string(lo + splitmix(s) % span);
    };
    src += "  count" + n + ": process (clk) begin\n"
           "    if rising_edge(clk) then cnt" + n + " <= cnt" + n + " + 1;"
           " end if;\n"
           "  end process;\n";
    src += "  scramble" + n + ": process (clk)\n"
           "    variable v : integer := " + k(0, 256) + ";\n"
           "    variable g : integer := 0;\n"
           "  begin\n"
           "    if rising_edge(clk) then\n"
           "      v := (v + " + k(1, 200) + ") mod 256;\n"
           "      g := (v * " + k(3, 60) + " + v mod " + k(5, 20) +
           ") mod 256;\n"
           "      scr" + n + " <= to_unsigned(g, 8);\n"
           "    end if;\n"
           "  end process;\n";
    src += "  accum" + n + ": process (clk)\n"
           "    variable a : integer := 0;\n"
           "  begin\n"
           "    if rising_edge(clk) then\n"
           "      a := to_integer(scr" + n + ");\n"
           "      for li in 0 to 7 loop\n"
           "        if cnt" + n + "(li) = '1' then a := (a * 2 + 1) mod 256;"
           " end if;\n"
           "        for lj in 0 to 5 loop\n"
           "          a := (a * " + k(17, 40) + " + lj + " + k(1, 9) +
           ") mod 65536;\n"
           "        end loop;\n"
           "      end loop;\n"
           "      acc" + n + " <= to_unsigned(a mod 256, 8);\n"
           "    end if;\n"
           "  end process;\n";
    src += "  mixer" + n + ": process (cnt" + n + ", scr" + n + ", acc" +
           next + ") begin\n"
           "    mix" + n + " <= ((cnt" + n + " xor scr" + n + ") or (acc" +
           next + " and cnt" + n + ")) xor ((scr" + n + " or acc" + next +
           ") + 1);\n"
           "  end process;\n";
  }
  src += "end a;\n";
  return src;
}

Probes build_rtl(vhdl::Design& d, std::uint64_t seed, Layers& t,
                 SpanLog& log) {
  Probes probes;
  t.elaborate = log.timed("elaborate", [&] {
    fe::ElabOptions opt;
    opt.backend = fe::Backend::kInterp;
    fe::elaborate_source(rtl_source(seed), "rtl", d, opt);
    for (std::size_t i = 0; i < kRtlLanes; ++i) {
      probes.push_back(d.find_signal("rtl/acc" + std::to_string(i)));
      probes.push_back(d.find_signal("rtl/mix" + std::to_string(i)));
    }
  });
  return probes;
}

const Workload kWorkloads[] = {
    {"iir", 8'000, false, build_iir},
    {"netlist_flat", 40, false, build_netlist<10'000>},
    {"netlist_clustered", 40, true, build_netlist<10'000>},
    {"rtl_source", 4'000, false, build_rtl},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// One engine-ready simulation: the model, its probe recorder and (for the
/// clustered workload) the fused runtime graph.  Every engine run needs a
/// fresh job: running mutates the LPs.
struct Job {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<vhdl::TraceRecorder> recorder;
  std::unique_ptr<pdes::FusedGraph> fused;
  std::size_t flat_lps = 0;
  Layers t;

  pdes::LpGraph& runtime() { return fused ? fused->graph : *graph; }
};

/// `flat`: skip clustering (the sequential oracle always runs flat).
Job make_job(const Workload& w, std::uint64_t seed, bool flat,
             SpanLog& log) {
  Job j;
  j.graph = std::make_unique<pdes::LpGraph>();
  j.design = std::make_unique<vhdl::Design>(*j.graph);
  const Probes probes = w.build(*j.design, seed, j.t, log);
  j.recorder = std::make_unique<vhdl::TraceRecorder>(*j.design, probes);
  j.t.finalize = log.timed("finalize", [&] { j.design->finalize(); });
  j.flat_lps = j.graph->size();
  if (w.clustered && !flat) {
    std::vector<std::uint32_t> assignment;
    j.t.cluster = log.timed("cluster", [&] {
      partition::ClusterOptions opts;
      opts.seed = seed;
      assignment = partition::cluster_bfs(*j.graph, opts);
    });
    j.t.fuse = log.timed("fuse", [&] {
      j.fused = std::make_unique<pdes::FusedGraph>(
          pdes::fuse_clusters(*j.graph, assignment));
    });
  }
  return j;
}

// ---------------------------------------------------------------------------
// Engine runs.

/// What the sequential oracle committed; every other run is compared to it.
struct Oracle {
  std::unique_ptr<vhdl::TraceRecorder> recorder;
  std::uint64_t committed = 0;
  double cost = 0.0;  ///< summed event cost, the model speedup's numerator
  std::size_t flat_lps = 0;
  std::size_t trace_entries = 0;
};

struct RunResult {
  std::string engine;
  std::string failure;  ///< empty when the run matched the oracle
  bool mismatch = false;  ///< failed by a wrong trace or event count
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t committed = 0;
  std::size_t runtime_lps = 0;
  Layers setup;
  pdes::RunStats stats;
};

std::string failure_of(const pdes::RunStats& st) {
  if (st.config_error) return "config error: " + st.config_error->str();
  if (st.transport_error)
    return "transport error: " + st.transport_error->str();
  if (st.recovery_error) return "recovery error: " + st.recovery_error->str();
  if (st.deadlocked)
    return "deadlock: " +
           (st.deadlock_report ? st.deadlock_report->str() : std::string());
  if (st.final_epoch != 0 || st.checkpoint.recoveries != 0 ||
      st.checkpoint.crashes != 0)
    return "failed over (epoch " + std::to_string(st.final_epoch) +
           "): measured the recovery path";
  return {};
}

void check_against(RunResult& r, const Oracle& o,
                   const vhdl::TraceRecorder& rec, std::size_t flat_lps) {
  if (!r.failure.empty()) return;
  if (flat_lps != o.flat_lps) {
    r.failure = "LP count " + std::to_string(flat_lps) + " vs oracle " +
                std::to_string(o.flat_lps);
  } else if (r.committed != o.committed) {
    r.failure = "committed " + std::to_string(r.committed) + " vs oracle " +
                std::to_string(o.committed);
  } else if (std::string d = vhdl::TraceRecorder::diff(*o.recorder, rec);
             !d.empty()) {
    r.failure = "trace diff: " + d;
  }
  r.mismatch = !r.failure.empty();
}

std::size_t trace_entries(const vhdl::TraceRecorder& rec) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < rec.num_signals(); ++i) n += rec.trace(i).size();
  return n;
}

/// Sequential kernel on the flat model.  With `oracle` null the run becomes
/// the oracle (its recorder is moved into `*out_oracle`).
RunResult run_sequential(const Workload& w, std::uint64_t seed, SpanLog& log,
                         const Oracle* oracle, Oracle* out_oracle) {
  const SpanLog::Scope span(log, "seq");
  RunResult r;
  r.engine = "seq";
  Job j = make_job(w, seed, /*flat=*/true, log);
  r.setup = j.t;
  r.runtime_lps = j.flat_lps;
  pdes::SequentialEngine eng(*j.graph);
  eng.set_commit_hook(j.recorder->hook());
  pdes::SequentialEngine::Result res;
  r.run_s = log.timed("run", [&] { res = eng.run(w.until); });
  r.committed = res.stats.metrics.counter(obs::Metric::kEventsCommitted);
  r.stats = std::move(res.stats);
  if (oracle != nullptr) {
    log.timed("oracle_diff",
              [&] { check_against(r, *oracle, *j.recorder, j.flat_lps); });
  } else {
    out_oracle->committed = r.committed;
    out_oracle->cost = res.total_cost;
    out_oracle->flat_lps = j.flat_lps;
    out_oracle->trace_entries = trace_entries(*j.recorder);
    out_oracle->recorder = std::move(j.recorder);
  }
  return r;
}

/// Threaded and distributed runs: library defaults except P and the two
/// wall-clock hygiene knobs above.
pdes::RunConfig engine_config(const Workload& w) {
  pdes::RunConfig rc;
  rc.num_workers = kWorkers;
  rc.until = w.until;
  rc.deadlock_rounds = kDeadlockRounds;
  rc.net.heartbeat_timeout_ms = kHeartbeatTimeoutMs;
  return rc;
}

/// The machine model at the figure benches' settings.
pdes::RunConfig model_config(const Workload& w) {
  pdes::RunConfig rc;
  rc.num_workers = kModelWorkers;
  rc.until = w.until;
  rc.max_history = kModelHistory;
  return rc;
}

std::string g_sock_base;

/// A fresh directory for one distributed run's sockets, removed with them.
class SocketDir {
 public:
  explicit SocketDir(std::size_t ranks) : ranks_(ranks) {
    static std::uint64_t serial = 0;
    path_ = g_sock_base + "/" + std::to_string(getpid()) + "-" +
            std::to_string(serial++);
    ok_ = mkdir(path_.c_str(), 0700) == 0;
  }
  ~SocketDir() {
    for (std::size_t i = 0; i < ranks_; ++i)
      unlink((path_ + "/rank-" + std::to_string(i) + ".sock").c_str());
    rmdir(path_.c_str());
  }
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  std::size_t ranks_;
  std::string path_;
  bool ok_ = false;
};

/// Any child process still un-reaped after a distributed run is a leak.
bool children_left() {
  int status = 0;
  const pid_t got = waitpid(-1, &status, WNOHANG);
  return !(got < 0 && errno == ECHILD);
}

/// Builds a job, places and constructs `Engine` on it, and -- when
/// `execute` -- runs it and checks the result against the oracle.
template <class Engine>
RunResult run_parallel(const char* engine, const Workload& w,
                       std::uint64_t seed, const Oracle& oracle,
                       pdes::RunConfig rc, SpanLog& log, bool execute = true) {
  constexpr bool kDistributed =
      std::is_same_v<Engine, pdes::DistributedEngine>;
  const SpanLog::Scope span(log, engine);
  RunResult r;
  r.engine = engine;
  Job j = make_job(w, seed, /*flat=*/false, log);
  r.runtime_lps = j.runtime().size();
  pdes::Partition part;
  j.t.place = log.timed("place", [&] {
    part = partition::round_robin(j.runtime().size(), rc.num_workers);
  });
  std::optional<SocketDir> sock;  // outlives the engine
  if constexpr (kDistributed) {
    sock.emplace(rc.num_workers);
    if (!sock->ok())
      r.failure = "cannot create socket directory " + sock->path();
    rc.net.socket_dir = sock->path();
  }
  std::unique_ptr<Engine> eng;
  j.t.construct = log.timed("construct", [&] {
    eng = std::make_unique<Engine>(j.runtime(), std::move(part), rc);
  });
  r.setup = j.t;
  if (!execute) return r;
  eng->set_commit_hook(j.recorder->hook());
  if (r.failure.empty()) {
    const double cpu0 = cpu_seconds(kDistributed ? RUSAGE_CHILDREN
                                                 : RUSAGE_SELF);
    Watchdog::DumpFn dump;
    if constexpr (kDistributed)
      dump = [&eng](std::FILE* f) { eng->debug_dump(f); };
    {
      Watchdog wd(std::string(engine) + " run of " + w.name,
                  std::move(dump));
      r.run_s = log.timed("run", [&] { r.stats = eng->run(); });
    }
    r.cpu_s = cpu_seconds(kDistributed ? RUSAGE_CHILDREN : RUSAGE_SELF) -
              cpu0;
    r.committed = r.stats.metrics.counter(obs::Metric::kEventsCommitted);
    r.failure = failure_of(r.stats);
  }
  if (kDistributed && children_left()) {
    if (r.failure.empty()) r.failure = "rank processes left un-reaped";
    while (waitpid(-1, nullptr, 0) > 0) {
    }
  }
  log.timed("oracle_diff",
            [&] { check_against(r, oracle, *j.recorder, j.flat_lps); });
  return r;
}

RunResult run_threaded(const Workload& w, std::uint64_t seed,
                       const Oracle& o, SpanLog& log, bool execute = true) {
  return run_parallel<pdes::ThreadedEngine>("threaded", w, seed, o,
                                            engine_config(w), log, execute);
}

RunResult run_distributed(const Workload& w, std::uint64_t seed,
                          const Oracle& o, SpanLog& log) {
  return run_parallel<pdes::DistributedEngine>("distributed", w, seed, o,
                                               engine_config(w), log);
}

RunResult run_model(const Workload& w, std::uint64_t seed, const Oracle& o,
                    SpanLog& log) {
  return run_parallel<pdes::MachineEngine>("model", w, seed, o,
                                           model_config(w), log);
}

double model_speedup(const RunResult& model, const Oracle& o) {
  const double makespan = model.stats.metrics.gauge(obs::Gauge::kMakespan);
  return makespan > 0 ? o.cost / makespan : 0.0;
}

// ---------------------------------------------------------------------------
// Accounting and reporting.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string first_failure;

  void add(const RunResult& r) {
    ++attempted;
    ++g_attempted;
    if (r.failure.empty()) return;
    ++failed;
    ++g_failed;
    if (r.mismatch) correct = false;
    std::fprintf(stderr, "wallbench: %s run failed: %s\n", r.engine.c_str(),
                 r.failure.substr(0, 300).c_str());
    if (first_failure.empty()) {
      first_failure = r.engine + ": " + r.failure;
      write_file(g_artifact_dir + "/failure-" + g_artifact_tag + ".txt",
                 first_failure + "\n");
    }
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double events_per_s(const RunResult& r) {
  return r.run_s > 0 ? static_cast<double>(r.committed) / r.run_s : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer counters one engine run exports, prefixed by its engine.
void engine_layer_metrics(const RunResult& r, std::vector<Metric>& out) {
  const obs::MetricsSnapshot& m = r.stats.metrics;
  const auto c = [&](obs::Metric id) {
    return static_cast<double>(m.counter(id));
  };
  const std::string p = r.engine + ".";
  const double committed = static_cast<double>(r.committed);
  const double rounds = c(obs::Metric::kGvtRounds);
  const double local = c(obs::Metric::kMessagesLocal);
  const double remote = c(obs::Metric::kMessagesRemote);
  const obs::Histogram& batch = m.histogram(obs::Hist::kBatchSize);
  const std::vector<Metric> add = {
      {p + "engine.gvt_rounds", "count", rounds},
      {p + "events_per_round", "count", ratio(committed, rounds)},
      {p + "engine.gvt_scan_items", "count", c(obs::Metric::kGvtScanItems)},
      {p + "efficiency", "ratio",
       ratio(committed, c(obs::Metric::kEventsProcessed))},
      {p + "tw.rollbacks", "count", c(obs::Metric::kRollbacks)},
      {p + "tw.events_undone", "count", c(obs::Metric::kEventsUndone)},
      {p + "tw.state_saves", "count", c(obs::Metric::kStateSaves)},
      {p + "tw.anti_messages", "count", c(obs::Metric::kAntiMessages)},
      {p + "adapt.demotions", "count", c(obs::Metric::kAdaptDemotions)},
      {p + "adapt.promotions", "count", c(obs::Metric::kAdaptPromotions)},
      {p + "adapt.optimistic_fraction", "ratio",
       m.gauge(obs::Gauge::kAdaptOptimisticFraction)},
      {p + "engine.blocked_polls", "count", c(obs::Metric::kBlockedPolls)},
      {p + "engine.queue_ops_per_event", "count",
       ratio(c(obs::Metric::kQueueOps), committed)},
      {p + "net.mailbox_batches", "count", c(obs::Metric::kMailboxBatches)},
      {p + "net.batch_size_mean", "count",
       ratio(batch.sum, static_cast<double>(batch.count))},
      {p + "net.remote_share", "ratio", ratio(remote, local + remote)},
      {p + "tw.peak_history", "count", m.gauge(obs::Gauge::kPeakHistory)},
      {p + "tw.total_history", "count", m.gauge(obs::Gauge::kTotalHistory)},
  };
  out.insert(out.end(), add.begin(), add.end());
}

/// One full pass of the traced run: every layer of every engine.
struct Pass {
  RunResult seq, thr, dist;
  [[nodiscard]] double run_s() const {
    return seq.run_s + thr.run_s + dist.run_s;
  }
};

std::vector<Metric> layer_metrics(const Pass& p, const RunResult& model) {
  const double committed = static_cast<double>(p.seq.committed);
  std::vector<Metric> out = {
      {"circuits.build_s", "s", p.thr.setup.build},
      {"frontend.elaborate_s", "s", p.thr.setup.elaborate},
      {"vhdl.finalize_s", "s", p.thr.setup.finalize},
      {"partition.cluster_s", "s", p.thr.setup.cluster},
      {"pdes.fuse_s", "s", p.thr.setup.fuse},
      {"partition.place_s", "s", p.thr.setup.place},
      {"pdes.threaded.construct_s", "s", p.thr.setup.construct},
      {"pdes.distributed.construct_s", "s", p.dist.setup.construct},
      {"pdes.seq.ns_per_event", "ns", 1e9 * ratio(p.seq.run_s, committed)},
      {"pdes.threaded.overhead_ns_per_event", "ns",
       1e9 * ratio(kWorkers * p.thr.run_s - p.seq.run_s, committed)},
      {"pdes.threaded.cpu_util", "ratio",
       ratio(p.thr.cpu_s, kWorkers * p.thr.run_s)},
      {"pdes.distributed.cpu_util", "ratio",
       ratio(p.dist.cpu_s, kWorkers * p.dist.run_s)},
  };
  engine_layer_metrics(p.thr, out);
  engine_layer_metrics(p.dist, out);
  engine_layer_metrics(model, out);
  const obs::MetricsSnapshot& dm = p.dist.stats.metrics;
  const auto dc = [&](obs::Metric id) {
    return static_cast<double>(dm.counter(id));
  };
  const std::vector<Metric> net = {
      {"distributed.transport.data_sent", "count",
       dc(obs::Metric::kTransportDataSent)},
      {"distributed.transport.acks_sent", "count",
       dc(obs::Metric::kTransportAcksSent)},
      {"distributed.transport.retransmits", "count",
       dc(obs::Metric::kTransportRetransmits)},
      {"distributed.net.frames_sent", "count", dc(obs::Metric::kNetFramesSent)},
      {"distributed.net.frames_recv", "count", dc(obs::Metric::kNetFramesRecv)},
      {"distributed.net.heartbeats", "count", dc(obs::Metric::kNetHeartbeats)},
      {"model.engine.makespan", "work_units",
       model.stats.metrics.gauge(obs::Gauge::kMakespan)},
  };
  out.insert(out.end(), net.begin(), net.end());
  return out;
}

/// Per-name median over passes (names and order from the first pass).
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out;
  if (passes.empty()) return out;
  for (std::size_t i = 0; i < passes[0].size(); ++i) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(p[i].value);
    out.push_back({passes[0][i].name, passes[0][i].unit, median(v)});
  }
  return out;
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const Metric& x : metrics)
    m.emplace_back(x.name, JsonObject{{"value", x.value}, {"unit", x.unit}});
  const Json result = JsonObject{{"correct", t.correct},
                                 {"attempted", t.attempted},
                                 {"failed", t.failed},
                                 {"metrics", std::move(m)}};
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
}

/// Set by run.py: the git SHA (when there is one) and a digest of the
/// sources, which identifies the program under test either way.
std::string env_or_unknown(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : "unknown";
}

Json config_json(const Workload& w, std::uint64_t seed, double seconds,
                 bool trace) {
  const pdes::RunConfig rc = engine_config(w);
  return JsonObject{
      {"workload", w.name},
      {"seed", seed},
      {"seconds", seconds},
      {"trace", trace},
      {"until", static_cast<std::uint64_t>(w.until)},
      {"clustered", w.clustered},
      {"backend", "interp"},
      {"placement", "round-robin"},
      {"num_workers", static_cast<std::uint64_t>(rc.num_workers)},
      {"model_workers", static_cast<std::uint64_t>(kModelWorkers)},
      {"model_max_history", static_cast<std::uint64_t>(kModelHistory)},
      {"configuration", pdes::to_string(rc.configuration)},
      {"ordering", pdes::to_string(rc.ordering)},
      {"strategy", pdes::to_string(rc.strategy)},
      {"gvt_interval", static_cast<std::uint64_t>(rc.gvt_interval)},
      {"max_history", static_cast<std::uint64_t>(rc.max_history)},
      {"deadlock_rounds", static_cast<std::uint64_t>(rc.deadlock_rounds)},
      {"model_deadlock_rounds",
       static_cast<std::uint64_t>(model_config(w).deadlock_rounds)},
      {"transport", rc.net.tcp ? "tcp" : "uds"},
      {"heartbeat_interval_ms",
       static_cast<std::uint64_t>(rc.net.heartbeat_interval_ms)},
      {"heartbeat_timeout_ms",
       static_cast<std::uint64_t>(rc.net.heartbeat_timeout_ms)},
      {"nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN))},
      {"build_type", WALLBENCH_BUILD_TYPE},
      {"git_sha", env_or_unknown("WALLBENCH_GIT_SHA")},
      {"source_digest", env_or_unknown("WALLBENCH_SOURCE_DIGEST")},
  };
}

// ---------------------------------------------------------------------------
// The two modes of a workload run.

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  SpanLog log(false, {});
  Tally tally;
  Oracle oracle;
  std::vector<double> seq_rate, thr_rate, dist_rate, setup;
  const Clock::time_point t0 = Clock::now();
  tally.add(run_sequential(w, seed, log, nullptr, &oracle));
  const RunResult model = run_model(w, seed, oracle, log);
  tally.add(model);
  const double oracle_s = seconds_since(t0);
  CpuRotation cpus;
  std::vector<double> seq_it;
  const auto seq_burst = [&] {
    for (double spent = 0; spent < kSeqBurstSeconds;) {
      const RunResult s = cpus.on_next_cpu(
          [&] { return run_sequential(w, seed, log, &oracle, nullptr); });
      tally.add(s);
      if (!s.failure.empty()) break;
      spent += s.run_s;
      seq_it.push_back(events_per_s(s));
    }
  };
  // Iterations stop when the next one would likely overrun `seconds`, so a
  // run ends near its budget rather than up to one iteration past it.
  const Clock::time_point loop0 = Clock::now();
  std::size_t runtime_lps = 0;
  int it = 0;
  for (; it < kMinIterations ||
         seconds_since(t0) + seconds_since(loop0) / it < seconds;
       ++it) {
    seq_it.clear();
    seq_burst();
    const RunResult t = run_threaded(w, seed, oracle, log);
    tally.add(t);
    setup.push_back(t.setup.total());
    runtime_lps = t.runtime_lps;
    if (t.failure.empty()) thr_rate.push_back(events_per_s(t));
    seq_burst();
    const RunResult d = run_distributed(w, seed, oracle, log);
    tally.add(d);
    if (d.failure.empty()) dist_rate.push_back(events_per_s(d));
    seq_rate.insert(seq_rate.end(), seq_it.begin(), seq_it.end());
    std::printf("# iteration %d: seq %.0f/s (median of %zu) threaded %.0f/s "
                "distributed %.0f/s setup %.4f s\n",
                it, median(seq_it), seq_it.size(), events_per_s(t),
                events_per_s(d), t.setup.total());
  }
  // Set-up alone is cheap to repeat: top its sample count up.
  for (const Clock::time_point s0 = Clock::now();
       setup.size() < kSetupSamples &&
       seconds_since(s0) < kSetupBudgetSeconds;)
    setup.push_back(cpus.on_next_cpu([&] {
      return run_threaded(w, seed, oracle, log, false).setup.total();
    }));
  std::printf("# %s seed %llu: %zu LPs (%zu scheduled), %llu committed "
              "events, %zu probe entries; oracle and model %.2f s, %d "
              "iterations, %zu sequential runs, %zu set-ups, %.2f s in all\n",
              w.name, static_cast<unsigned long long>(seed), oracle.flat_lps,
              runtime_lps, static_cast<unsigned long long>(oracle.committed),
              oracle.trace_entries, oracle_s, it, seq_rate.size(),
              setup.size(), seconds_since(t0));
  print_result(tally,
               {{"setup_s", "s", median(setup)},
                {"seq_events_per_s", "1/s", median(seq_rate)},
                {"threaded_p4_events_per_s", "1/s", median(thr_rate)},
                {"distributed_p4_events_per_s", "1/s", median(dist_rate)},
                {"model_speedup_p16", "x", model_speedup(model, oracle)},
                {"peak_rss_mb", "MB", peak_rss_mb()}});
  return 0;
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& run_id) {
  SpanLog quiet(false, {});
  SpanLog log(true, run_id);
  Tally tally;
  Oracle oracle;
  const Clock::time_point t0 = Clock::now();
  tally.add(run_sequential(w, seed, log, nullptr, &oracle));
  const RunResult model = run_model(w, seed, oracle, log);
  tally.add(model);
  std::vector<std::vector<Metric>> traced;
  std::vector<double> traced_s, untraced_s;
  const Clock::time_point loop0 = Clock::now();
  for (int it = 0;
       it < 2 || seconds_since(t0) + seconds_since(loop0) / it < seconds;
       ++it) {
    // Alternate untraced and traced passes so drift hits both alike.
    const bool on = it % 2 == 1;
    SpanLog& l = on ? log : quiet;
    Pass p;
    p.seq = run_sequential(w, seed, l, &oracle, nullptr);
    p.thr = run_threaded(w, seed, oracle, l);
    p.dist = run_distributed(w, seed, oracle, l);
    for (const RunResult* r : {&p.seq, &p.thr, &p.dist}) tally.add(*r);
    (on ? traced_s : untraced_s).push_back(p.run_s());
    if (on) traced.push_back(layer_metrics(p, model));
  }
  std::vector<Metric> metrics = median_metrics(traced);
  metrics.push_back({"bench.tracing_overhead", "ratio",
                     ratio(median(traced_s), median(untraced_s)) - 1.0});
  write_file(g_artifact_dir + "/spans-" + g_artifact_tag + ".json",
             log.to_json().dump(1) + "\n");
  print_result(tally, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-tests: seed determinism, seed sensitivity, a non-empty oracle.

int run_selftest() {
  SpanLog log(false, {});
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const Workload& w : kWorkloads) {
    const std::string n = w.name;
    Oracle a, b, other;
    run_sequential(w, 1, log, nullptr, &a);
    run_sequential(w, 1, log, nullptr, &b);
    run_sequential(w, 2, log, nullptr, &other);
    expect(a.flat_lps == b.flat_lps, n + ": same seed, same LP count");
    expect(a.committed == b.committed, n + ": same seed, same event count");
    expect(a.trace_entries > 0, n + ": oracle trace is non-empty");
    expect(vhdl::TraceRecorder::diff(*a.recorder, *other.recorder) != "",
           n + ": another seed gives another design");
    const RunResult m1 = run_model(w, 1, a, log);
    const RunResult m2 = run_model(w, 1, b, log);
    expect(m1.failure.empty() && m2.failure.empty(),
           n + ": model runs match the oracle");
    const double s1 = model_speedup(m1, a);
    expect(s1 > 0 && s1 == model_speedup(m2, b),
           n + ": same seed, same model_speedup_p16");
  }
  expect(rtl_source(1) != rtl_source(2),
         "rtl_source: another seed gives another source");
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR --sock DIR\n"
               "       wallbench --selftest --out DIR --sock DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
#ifdef VSIM_SANITIZE_BUILD
  std::fprintf(stderr, "wallbench: refusing to report from a sanitizer "
                       "build\n");
  return 2;
#endif
  // Pin the environment: none of these may change the program under test.
  for (const char* v : {"VSIM_TRACE", "VSIM_TRACE_LIMIT", "VSIM_BACKEND",
                        "VSIM_TIME_SCALE"})
    unsetenv(v);

  std::map<std::string, std::string> args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (!args.count("out") || !args.count("sock")) {
    usage();
    return 2;
  }
  g_artifact_dir = args["out"];
  g_sock_base = args["sock"];
  if (selftest) {
    g_artifact_tag = "selftest";
    return run_selftest();
  }

  const Workload* w = find_workload(args["workload"]);
  if (w == nullptr || !args.count("seed") || !args.count("seconds")) {
    usage();
    return 2;
  }
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args.count("trace") && args["trace"] == "1";
  g_artifact_tag = std::string(w->name) + "-" + std::to_string(seed) +
                   (trace ? "-trace" : "");

  const Json cfg = config_json(*w, seed, seconds, trace);
  write_file(g_artifact_dir + "/config-" + g_artifact_tag + ".json",
             cfg.dump(1) + "\n");
  std::printf("# config %s\n", cfg.dump().c_str());
  return trace ? run_traced(*w, seed, seconds,
                            g_artifact_tag + "-" + std::to_string(getpid()))
               : run_untraced(*w, seed, seconds);
}
