/// \file e2e_bench.cpp
/// End-to-end benchmark of the paper's pipeline: read -> exchange -> LConv
/// (Table III), then the six Table IV analytics, on one generated graph and
/// one ranks x threads layout.  See README.md for the workloads, metrics and
/// method.
///
///   e2e_bench gen --workload W --seed S --out FILE
///       write the workload's seeded edge file (the program's only input)
///   e2e_bench run --workload W --files F1,F2,... --seconds T --trace 0|1
///                 [--chrome TRACE.json]
///       run rounds of one pipeline pass per file for T seconds, check every
///       output, and print one JSON document of per-pass samples (one
///       series set per file) as the last stdout line
///   e2e_bench selftest
///       show that every output check fails on a corrupted result
///
/// Every operation (one construction or one analytic call) runs in its own
/// CommWorld::run, so an operation that throws is counted as failed without
/// taking the rest of the pass down, and its counters are its own.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analytics/harmonic.hpp"
#include "analytics/kcore.hpp"
#include "analytics/label_prop.hpp"
#include "analytics/pagerank.hpp"
#include "analytics/scc_decompose.hpp"
#include "analytics/wcc.hpp"
#include "checks.hpp"
#include "dgraph/builder.hpp"
#include "engine/trace.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/webgraph.hpp"
#include "io/binary_edge_io.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace hpcgraph;
using e2e::Op;

// Taken during static initialization, before main: the cold set-up is timed
// from here to a DistGraph on every rank.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

// ---- Workloads. ----

/// log2 of the vertex count and the web graph's mean out-degree.  The
/// Erdős–Rényi graph gets the same n and the web graph's edge count.
constexpr int kScale = 15;
constexpr double kAvgDegree = 16;

struct Workload {
  std::string_view name;
  bool web;  ///< gen::webgraph, else gen::erdos_renyi
  int ranks;
  unsigned threads;  ///< pool threads per rank
};

constexpr Workload kWorkloads[] = {
    {"web-4x1", true, 4, 1},
    {"er-4x1", false, 4, 1},
    {"web-2x2", true, 2, 2},
    {"web-1x1", true, 1, 1},  // single-thread baseline (README)
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

gen::EdgeList generate(const Workload& w, std::uint64_t seed) {
  gen::WebGraphParams wp;
  wp.n = gvid_t{1} << kScale;
  wp.avg_degree = kAvgDegree;
  wp.seed = seed;
  gen::EdgeList web = gen::webgraph(wp).graph;
  if (w.web) return web;
  gen::ErParams ep;
  ep.n = wp.n;
  ep.m = web.m();
  ep.seed = seed;
  return gen::erdos_renyi(ep);
}

// ---- Small helpers. ----

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host steal seconds so far, summed over CPUs (diagnostic only).
double host_steal_seconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double user, nice, sys, idle, iowait, irq, softirq, steal = 0;
  if (f >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >>
      steal)
    return steal / static_cast<double>(::sysconf(_SC_CLK_TCK));
  return 0;
}

template <typename F>
double max_over(const std::vector<parcomm::PhaseBreakdown>& v, F f) {
  double m = 0;
  for (const auto& p : v) m = std::max(m, f(p));
  return m;
}

/// Self time of each span name over a set of lanes: a span's duration minus
/// the part its direct children cover.  Spans on one lane nest (RAII), so
/// a containment stack recovers the tree.
void add_self_times(const std::vector<obs::Event>& lane_events,
                    std::map<std::string, double>& self) {
  std::vector<obs::Event> spans;
  for (const auto& e : lane_events)
    if (e.kind == obs::EventKind::kSpan) spans.push_back(e);
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.dur_ns > b.dur_ns;
  });
  struct Open {
    std::int64_t end;
    std::string name;
    std::int64_t child_ns = 0;
    std::int64_t dur;
  };
  std::vector<Open> stack;
  const auto pop = [&] {
    const Open o = stack.back();
    stack.pop_back();
    self[o.name] += static_cast<double>(std::max<std::int64_t>(
                        o.dur - o.child_ns, 0)) * 1e-9;
    if (!stack.empty()) stack.back().child_ns += o.dur;
  };
  for (const auto& s : spans) {
    while (!stack.empty() && stack.back().end <= s.ts_ns) pop();
    stack.push_back({s.ts_ns + s.dur_ns, s.name, 0, s.dur_ns});
  }
  while (!stack.empty()) pop();
}

// ---- One pipeline pass. ----

/// What one operation did, per rank.
struct OpSample {
  double wall = 0;  ///< rank 0, from the aligned start to all ranks done
  std::vector<parcomm::CommStats> stats;
  std::vector<parcomm::PhaseBreakdown> phase;
  std::size_t supersteps = 0;  ///< engine records (traced passes only)
  bool threw = false;
  std::string error;
};

struct PassResult {
  std::chrono::steady_clock::time_point setup_done;
  double pipeline_s = 0;
  double cpu_s = 0;
  std::array<OpSample, e2e::kNumOps> ops;
  e2e::Outputs out;
  // Construction, per rank.
  std::vector<dgraph::BuildTiming> timing;
  std::vector<double> build_call_s;
  std::uint64_t ghosts = 0;
  std::map<std::string, double> self_s;  ///< traced passes only
};

/// Runs pipeline passes on one CommWorld, which every graph of a run shares:
/// the world's exchange buffers grow on its first passes, so a world per
/// graph would make every graph's first pass a cold one.
class Pipeline {
 public:
  explicit Pipeline(const Workload& w) : w_(w), world_(w.ranks) {}

  /// Runs setup + the six analytics once on the edge file `path`.  `traced`
  /// installs an obs::Tracer for the pass; `chrome` (traced only) also
  /// writes its timeline.
  PassResult run_pass(const std::string& path, bool traced,
                      const std::string& chrome) {
    const int R = w_.ranks;
    // Declared before the pass state, so pools (which hold tracer lane
    // contexts) are destroyed first.
    std::optional<obs::Tracer> tracer;
    engine::SuperstepTrace steps;
    if (traced) {
      tracer.emplace();
      tracer->install();
    }
    std::vector<std::unique_ptr<ThreadPool>> pools(R);
    std::vector<std::optional<dgraph::DistGraph>> graphs(R);
    std::vector<analytics::PageRankResult> pr(R);
    std::vector<analytics::LabelPropResult> lp(R);
    std::vector<analytics::WccResult> wcc(R);
    std::vector<analytics::SccDecomposeResult> scc(R);
    std::vector<analytics::KCoreResult> kc(R);
    std::vector<std::vector<analytics::ScoredVertex>> hc(R);

    PassResult res;
    res.timing.resize(R);
    res.build_call_s.resize(R);
    const auto common = [&](int r) {
      analytics::CommonOptions c;
      c.pool = pools[r].get();
      c.trace = traced ? &steps : nullptr;
      return c;
    };

    const double cpu0 = cpu_seconds();
    Timer pass;
    res.ops[e2e::kSetup] = run_op("e2e.setup", steps, [&](parcomm::Communicator& comm) {
      const int r = comm.rank();
      pools[r] = std::make_unique<ThreadPool>(w_.threads);
      Timer t;
      graphs[r].emplace(dgraph::Builder::from_file(
          comm, path, io::EdgeFormat::kU32, dgraph::PartitionKind::kVertexBlock,
          gvid_t{1} << kScale, &res.timing[r]));
      res.build_call_s[r] = t.elapsed();
    });
    res.setup_done = std::chrono::steady_clock::now();
    if (!res.ops[e2e::kSetup].threw) {
      res.ops[e2e::kPageRank] = run_op("e2e.pagerank", steps, [&](auto& comm) {
        analytics::PageRankOptions o;
        o.max_iterations = e2e::kPageRankIters;
        o.damping = e2e::kDamping;
        o.common = common(comm.rank());
        pr[comm.rank()] = analytics::pagerank(*graphs[comm.rank()], comm, o);
      });
      res.ops[e2e::kLabelProp] = run_op("e2e.labelprop", steps, [&](auto& comm) {
        analytics::LabelPropOptions o;
        o.iterations = e2e::kLabelPropIters;
        o.tie_seed = e2e::kTieSeed;
        o.common = common(comm.rank());
        lp[comm.rank()] =
            analytics::label_propagation(*graphs[comm.rank()], comm, o);
      });
      res.ops[e2e::kWcc] = run_op("e2e.wcc", steps, [&](auto& comm) {
        analytics::WccOptions o;
        o.common = common(comm.rank());
        wcc[comm.rank()] = analytics::wcc(*graphs[comm.rank()], comm, o);
      });
      res.ops[e2e::kScc] = run_op("e2e.scc", steps, [&](auto& comm) {
        analytics::SccDecomposeOptions o;
        o.common = common(comm.rank());
        scc[comm.rank()] = analytics::scc_decompose(*graphs[comm.rank()], comm, o);
      });
      res.ops[e2e::kKCore] = run_op("e2e.kcore", steps, [&](auto& comm) {
        analytics::KCoreOptions o;
        o.max_i = e2e::kKCoreMaxI;
        o.common = common(comm.rank());
        kc[comm.rank()] = analytics::kcore_approx(*graphs[comm.rank()], comm, o);
      });
      res.ops[e2e::kHarmonic] = run_op("e2e.harmonic", steps, [&](auto& comm) {
        analytics::HarmonicOptions o;
        o.common = common(comm.rank());
        hc[comm.rank()] = analytics::harmonic_top_k(*graphs[comm.rank()], comm,
                                                    e2e::kHarmonicK, o);
      });
    } else {
      for (int op = e2e::kPageRank; op < e2e::kNumOps; ++op) {
        res.ops[op].threw = true;
        res.ops[op].error = "not run: construction failed";
      }
    }
    res.pipeline_s = pass.elapsed();
    res.cpu_s = cpu_seconds() - cpu0;

    if (traced) {
      if (!chrome.empty())
        world_.run([&](parcomm::Communicator& comm) {
          obs::RankGuard guard(comm.rank());
          obs::finalize_trace(*tracer, comm);
        });
      obs::Tracer::uninstall();
      for (int r = 0; r < R; ++r)
        for (const obs::Lane* lane : tracer->rank_lanes(r))
          add_self_times(lane->snapshot(), res.self_s);
      if (!chrome.empty()) tracer->write_chrome_json(chrome);
    }

    // Gather outputs into global-id order.
    const gvid_t n = gvid_t{1} << kScale;
    e2e::Outputs& out = res.out;
    for (int r = 0; r < R; ++r) {
      if (!graphs[r]) continue;
      const dgraph::DistGraph& g = *graphs[r];
      out.n_loc_sum += g.n_loc();
      out.m_out_sum += g.m_out();
      out.m_in_sum += g.m_in();
      res.ghosts += g.n_gst();
    }
    const auto scatter = [&](auto& dst, const auto& per_rank, auto field) {
      using T = std::decay_t<decltype(field(per_rank[0])[0])>;
      dst.assign(n, T{});
      for (int r = 0; r < R; ++r) {
        const auto& vals = field(per_rank[r]);
        if (!graphs[r] || vals.size() != graphs[r]->n_loc()) continue;
        for (lvid_t v = 0; v < graphs[r]->n_loc(); ++v)
          dst[graphs[r]->global_id(v)] = vals[v];
      }
    };
    scatter(out.pagerank, pr, [](const auto& x) -> const auto& { return x.scores; });
    scatter(out.labels, lp, [](const auto& x) -> const auto& { return x.labels; });
    scatter(out.wcc, wcc, [](const auto& x) -> const auto& { return x.comp; });
    scatter(out.scc, scc, [](const auto& x) -> const auto& { return x.comp; });
    out.scc_largest = scc[0].largest_size;
    scatter(out.kcore, kc, [](const auto& x) -> const auto& { return x.bound; });
    out.harmonic = hc[0];
    // Every rank must return the same top-k list.
    for (int r = 1; r < R; ++r) {
      e2e::Outputs other;
      other.harmonic = hc[r];
      if (!e2e::same_output(e2e::kHarmonic, other, out)) {
        res.ops[e2e::kHarmonic].threw = true;
        res.ops[e2e::kHarmonic].error = "ranks disagree on the top-k list";
      }
    }
    return res;
  }

 private:
  template <typename F>
  OpSample run_op(const char* span, const engine::SuperstepTrace& steps,
                  F&& body) {
    OpSample s;
    s.stats.resize(w_.ranks);
    s.phase.resize(w_.ranks);
    const std::size_t steps0 = steps.size();
    try {
      world_.run([&](parcomm::Communicator& comm) {
        obs::RankGuard guard(comm.rank());  // no-op unless a tracer is installed
        comm.barrier();
        const parcomm::CommStats st0 = comm.stats();
        const parcomm::PhaseBreakdown ph0 = comm.phase_timer().snapshot();
        Timer t;
        {
          obs::Span sp(span);
          body(comm);
        }
        s.phase[comm.rank()] = comm.phase_timer().snapshot() - ph0;
        s.stats[comm.rank()] = comm.stats() - st0;
        comm.barrier();
        if (comm.rank() == 0) s.wall = t.elapsed();
      });
    } catch (const std::exception& e) {
      s.threw = true;
      s.error = e.what();
    }
    s.supersteps = steps.size() - steps0;
    return s;
  }

  const Workload& w_;
  parcomm::CommWorld world_;
};

// ---- Commands. ----

int usage(const char* msg) {
  std::cerr << "e2e_bench: " << msg << "\n"
            << "usage: e2e_bench gen --workload W --seed S --out FILE\n"
            << "       e2e_bench run --workload W --files F1,F2,... "
               "--seconds T --trace 0|1 [--chrome TRACE.json]\n"
            << "       e2e_bench selftest\n";
  return 2;
}

int cmd_gen(const Cli& cli) {
  const Workload* w = find_workload(cli.get("workload", ""));
  const std::string out = cli.get("out", "");
  const std::int64_t seed = cli.get_int("seed", -1);
  if (w == nullptr || out.empty() || seed < 0)
    return usage("gen needs --workload, --seed and --out");
  if (!cli.unknown_flags().empty()) return usage("unknown flag");
  const gen::EdgeList el = generate(*w, static_cast<std::uint64_t>(seed));
  io::write_edge_file(out, el, io::EdgeFormat::kU32);
  std::cout << "{\"n\": " << el.n << ", \"m\": " << el.m() << "}\n";
  return 0;
}

/// Series of per-pass samples, keyed by metric name.
using Series = std::map<std::string, std::vector<double>>;

void record_untraced(const PassResult& p, Series& s) {
  s["pipeline_s"].push_back(p.pipeline_s);
  s["proc.cpu_s"].push_back(p.cpu_s);
  double remote = 0;
  for (int op = 0; op < e2e::kNumOps; ++op) {
    const OpSample& o = p.ops[op];
    const std::string a = e2e::kOpNames[op];
    s[a + "_s"].push_back(o.wall);
    double bytes = 0, coll = 0;
    for (const auto& st : o.stats) {
      bytes += static_cast<double>(st.bytes_remote);
      coll = std::max(coll, static_cast<double>(st.collective_calls));
    }
    remote += bytes;
    s["parcomm.bytes_remote." + a].push_back(bytes);
    s["parcomm.collectives." + a].push_back(coll);
    s["parcomm.comp_s." + a].push_back(
        max_over(o.phase, [](const auto& x) { return x.comp; }));
    s["parcomm.comm_s." + a].push_back(
        max_over(o.phase, [](const auto& x) { return x.comm; }));
    s["parcomm.idle_s." + a].push_back(
        max_over(o.phase, [](const auto& x) { return x.idle; }));
    if (op == e2e::kSetup) continue;
    double dense = 0, sparse = 0, busy = 0;
    for (const auto& st : o.stats) {
      dense = std::max(dense, static_cast<double>(st.ghost_rounds_dense));
      sparse = std::max(sparse, static_cast<double>(st.ghost_rounds_sparse));
    }
    for (const auto& ph : o.phase) busy += ph.sweep_busy_total;
    s["ghost.pack_s." + a].push_back(
        max_over(o.phase, [](const auto& x) { return x.pack; }));
    s["ghost.rounds_dense." + a].push_back(dense);
    s["ghost.rounds_sparse." + a].push_back(sparse);
    s["frontier.route_s." + a].push_back(
        max_over(o.phase, [](const auto& x) { return x.route; }));
    s["pool.busy_s." + a].push_back(busy);
    s["pool.busy_max_s." + a].push_back(
        max_over(o.phase, [](const auto& x) { return x.sweep_busy_max; }));
  }
  s["remote_bytes"].push_back(remote);
  double read = 0, exch = 0, lconv = 0, part = 0;
  for (std::size_t r = 0; r < p.timing.size(); ++r) {
    const dgraph::BuildTiming& t = p.timing[r];
    read = std::max(read, t.read);
    exch = std::max(exch, t.exchange);
    lconv = std::max(lconv, t.lconv);
    part = std::max(part, p.build_call_s[r] - t.total());
  }
  s["io.read_s"].push_back(read);
  s["dgraph.exchange_s"].push_back(exch);
  s["dgraph.lconv_s"].push_back(lconv);
  s["dgraph.partition_s"].push_back(part);
  s["dgraph.ghosts"].push_back(static_cast<double>(p.ghosts));
}

void record_traced(const PassResult& p, Series& s) {
  s["traced.pipeline_s"].push_back(p.pipeline_s);
  for (int op = e2e::kPageRank; op < e2e::kNumOps; ++op)
    s[std::string("engine.supersteps.") + e2e::kOpNames[op]].push_back(
        static_cast<double>(p.ops[op].supersteps));
  for (const auto& [name, secs] : p.self_s) s["self_s." + name].push_back(secs);
}

/// One input graph of a run: the pass outputs every later pass must
/// repeat, and its per-pass samples.
struct GraphRun {
  explicit GraphRun(std::string p) : path(std::move(p)) {}

  std::string path;
  Series series;
  e2e::Outputs ref;                    ///< reference output of each op
  std::array<int, e2e::kNumOps> ref_pass{-1, -1, -1, -1, -1, -1, -1};
  std::array<double, e2e::kNumOps> ref_bytes{};
  std::vector<std::array<bool, e2e::kNumOps>> ok_log;
  std::array<std::uint64_t, e2e::kNumOps> failed{};
  std::array<std::string, e2e::kNumOps> first_error;

  /// Checks one pass against the conservation law and the earlier passes;
  /// the first good output of each op becomes its reference.
  void account(const PassResult& p, int pass) {
    std::array<bool, e2e::kNumOps> ok{};
    for (int op = 0; op < e2e::kNumOps; ++op) {
      const OpSample& o = p.ops[op];
      double bytes = 0;
      for (const auto& st : o.stats) bytes += static_cast<double>(st.bytes_remote);
      std::string err = o.error;
      if (o.threw && err.empty()) err = "threw";
      if (!o.threw && !e2e::bytes_conserved(o.stats))
        err = "bytes received != bytes delivered";
      if (err.empty() && ref_pass[op] < 0) {
        ref_pass[op] = pass;
        ref_bytes[op] = bytes;
        switch (op) {  // keep only this op's output as the reference
          case e2e::kSetup:
            ref.n_loc_sum = p.out.n_loc_sum;
            ref.m_out_sum = p.out.m_out_sum;
            ref.m_in_sum = p.out.m_in_sum;
            break;
          case e2e::kPageRank: ref.pagerank = p.out.pagerank; break;
          case e2e::kLabelProp: ref.labels = p.out.labels; break;
          case e2e::kWcc: ref.wcc = p.out.wcc; break;
          case e2e::kScc:
            ref.scc = p.out.scc;
            ref.scc_largest = p.out.scc_largest;
            break;
          case e2e::kKCore: ref.kcore = p.out.kcore; break;
          case e2e::kHarmonic: ref.harmonic = p.out.harmonic; break;
        }
      } else if (err.empty() && !e2e::same_output(static_cast<Op>(op), ref, p.out)) {
        err = "output differs from an earlier pass";
      } else if (err.empty() && bytes != ref_bytes[op]) {
        err = "remote bytes differ from an earlier pass";
      }
      ok[op] = err.empty();
      if (!ok[op]) {
        ++failed[op];
        if (first_error[op].empty()) first_error[op] = err;
      }
    }
    ok_log.push_back(ok);
  }

  /// Full checks of the reference outputs against independent computations
  /// from the edge file.  A failed check fails every pass that repeated the
  /// reference output.
  void check() {
    const std::uint64_t m = io::edge_count(path, io::EdgeFormat::kU32);
    gen::EdgeList el;
    el.n = gvid_t{1} << kScale;
    el.edges = io::read_edge_chunk(path, io::EdgeFormat::kU32, 0, m);
    const e2e::Expected want = e2e::Expected::compute(el);
    for (int op = 0; op < e2e::kNumOps; ++op) {
      if (ref_pass[op] < 0) continue;
      const std::string err = e2e::check_op(static_cast<Op>(op), want, ref);
      if (err.empty()) continue;
      if (first_error[op].empty()) first_error[op] = err;
      for (const auto& ok : ok_log)
        if (ok[op]) ++failed[op];
    }
  }
};

int cmd_run(const Cli& cli) {
  const Workload* w = find_workload(cli.get("workload", ""));
  const std::string files = cli.get("files", "");
  const double seconds = cli.get_double("seconds", 10);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string chrome = cli.get("chrome", "");
  if (w == nullptr || files.empty())
    return usage("run needs --workload and --files");
  if (!cli.unknown_flags().empty()) return usage("unknown flag");
  const double steal0 = host_steal_seconds();

  std::vector<std::unique_ptr<GraphRun>> graphs;
  std::stringstream list(files);
  for (std::string f; std::getline(list, f, ',');)
    graphs.push_back(std::make_unique<GraphRun>(f));
  const int K = static_cast<int>(graphs.size());
  Pipeline pipe(*w);

  // Warm-up: one pass over the first graph, checked like every other pass
  // but not sampled.  Its set-up is the run's cold one.  Later passes find
  // the world's buffers and the allocator's heap grown.
  int passes = 0;
  double setup_s = 0;
  {
    const PassResult p = pipe.run_pass(graphs[0]->path, false, "");
    setup_s =
        std::chrono::duration<double>(p.setup_done - g_process_start).count();
    graphs[0]->account(p, passes++);
  }

  // Rounds of one pass per graph, so every graph gets the same number of
  // passes; at least three, so that a graph's median over its passes drops
  // a pass that a slow spell of the host hit, and --trace 1 has traced and
  // untraced rounds.  With --trace 1 every other round is traced.
  constexpr int kMinRounds = 3;
  Timer clock;
  for (int round = 0; round < kMinRounds || clock.elapsed() < seconds; ++round) {
    const bool traced = trace && round % 2 == 1;
    for (int k = 0; k < K; ++k) {
      GraphRun& g = *graphs[k];
      const double pass_steal0 = host_steal_seconds();
      const PassResult p = pipe.run_pass(
          g.path, traced, traced && round == 1 && k == 0 ? chrome : "");
      const double pass_steal = host_steal_seconds() - pass_steal0;
      g.account(p, passes++);
      (traced ? record_traced : record_untraced)(p, g.series);
      if (!traced) g.series["host_steal_s"].push_back(pass_steal);
    }
  }
  const double rss = peak_rss_mb();
  const double steal = host_steal_seconds() - steal0;

  // Outside every timed region, and after the RSS reading.  The graphs'
  // checks are independent, so they share out kCheckThreads threads.
  constexpr int kCheckThreads = 4;
  Timer check_clock;
  {
    std::atomic<int> next{0};
    std::vector<std::exception_ptr> errors(K);
    std::vector<std::thread> workers;
    for (int t = 0; t < std::min(kCheckThreads, K); ++t)
      workers.emplace_back([&] {
        for (int k; (k = next.fetch_add(1)) < K;) {
          try {
            graphs[k]->check();
          } catch (...) {
            errors[k] = std::current_exception();
          }
        }
      });
    for (auto& t : workers) t.join();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }

  std::uint64_t failed_total = 0;
  for (const auto& g : graphs)
    for (const auto f : g->failed) failed_total += f;
  util::JsonWriter j;
  j.begin_object();
  j.kv("workload", std::string_view(w->name));
  j.kv("passes", passes);
  j.kv("attempted", static_cast<std::uint64_t>(passes) * e2e::kNumOps);
  j.kv("failed", failed_total);
  j.kv("setup_s", setup_s);
  j.kv("peak_rss_mb", rss);
  j.kv("host_steal_s", steal);
  j.kv("check_s", check_clock.elapsed());
  j.key("errors");
  j.begin_object();
  for (int k = 0; k < K; ++k)
    for (int op = 0; op < e2e::kNumOps; ++op)
      if (!graphs[k]->first_error[op].empty())
        j.kv(std::string(e2e::kOpNames[op]) + "@" + graphs[k]->path,
             graphs[k]->first_error[op]);
  j.end_object();
  j.key("graphs");
  j.begin_array();
  for (const auto& g : graphs) {
    j.begin_object();
    for (const auto& [name, vals] : g->series) {
      j.key(name);
      j.begin_array();
      for (const double v : vals) j.value(v);
      j.end_array();
    }
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::cout << j.str() << "\n";
  return 0;
}

}  // namespace

int cmd_selftest();  // selftest.cpp

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  const std::string cmd = argv[1];
  const Cli cli(argc - 1, argv + 1);
  try {
    if (cmd == "gen") return cmd_gen(cli);
    if (cmd == "run") return cmd_run(cli);
    if (cmd == "selftest") return cmd_selftest();
    return usage("unknown command");
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
