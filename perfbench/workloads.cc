#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "accel/harness.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/evaluator.hh"
#include "dnn/deit.hh"
#include "dnn/resnet50.hh"
#include "dnn/transformer.hh"
#include "format/hierarchical_cp.hh"
#include "format/operand_b.hh"
#include "microsim/simulator.hh"
#include "runtime/thread_pool.hh"
#include "sparsity/sparsify.hh"
#include "tensor/generator.hh"

namespace perfbench
{

using namespace highlight;

namespace
{

/** Every design Evaluator owns, in its stable order. */
const char *const kDesigns[] = {"TC",   "STC",       "S2TA",
                                "DSTC", "HighLight", "DSSO"};

double
msSince(std::int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e6;
}

// ------------------------------------------------------- serialization

void
putRaw(std::string &out, const void *p, std::size_t n)
{
    out.append(static_cast<const char *>(p), n);
}

void
putNum(std::string &out, double v)
{
    putRaw(out, &v, sizeof v);
}

void
putStr(std::string &out, const std::string &s)
{
    const std::uint64_t n = s.size();
    putRaw(out, &n, sizeof n);
    out += s;
}

void
putBreakdown(std::string &out, const std::vector<BreakdownEntry> &b)
{
    putNum(out, static_cast<double>(b.size()));
    for (const auto &e : b) {
        putStr(out, e.name);
        putNum(out, e.value);
    }
}

void
putResult(std::string &out, const EvalResult &r)
{
    putStr(out, r.design);
    putStr(out, r.workload);
    putNum(out, r.supported ? 1.0 : 0.0);
    putStr(out, r.note);
    putNum(out, r.cycles);
    putNum(out, r.clock_mhz);
    putBreakdown(out, r.energy_pj);
    putBreakdown(out, r.area_um2);
}

void
putDnn(std::string &out, const DnnEvalResult &r)
{
    putStr(out, r.design);
    putNum(out, r.accuracy_loss);
    putNum(out, r.total_energy_pj);
    putNum(out, r.total_cycles);
    putNum(out, r.supported ? 1.0 : 0.0);
    putStr(out, r.note);
    putNum(out, static_cast<double>(r.per_layer.size()));
    for (const auto &l : r.per_layer)
        putResult(out, l);
}

void
putSim(std::string &out, const SimResult &r)
{
    const auto &d = r.output.data();
    putRaw(out, d.data(), d.size() * sizeof(float));
    const SimStats &s = r.stats;
    const std::int64_t counters[] = {
        s.cycles,           s.a_words_loaded,   s.psum_updates,
        s.dummy_blocks,     s.glb_b.row_fetches, s.glb_b.words_read,
        s.vfmu.shifts,      s.vfmu.skipped_fetches, s.vfmu.words_out,
        s.pe.mac_ops,       s.pe.gated_macs,    s.pe.mux_selects};
    putRaw(out, counters, sizeof counters);
}

// ------------------------------------------------------ metric helpers

void
setMetric(Metrics *m, const std::string &name, double value)
{
    auto it = m->find(name);
    if (it == m->end())
        panic(msgOf("perfbench: metric ", name,
                    " missing from the per-layer table"));
    it->second.value = value;
}

/**
 * Sets `<span>_<unit>`, the median self time per call, and
 * `<span>_calls`, the calls per pass.
 */
void
setTiming(Metrics *m, const std::map<std::string, SpanSummary> &spans,
          const std::string &span, const std::string &unit, double passes)
{
    const auto it = spans.find(span);
    if (it == spans.end())
        return;
    const double ns_per_unit = unit == "ns" ? 1.0 : unit == "us" ? 1e3 : 1e6;
    setMetric(m, span + "_" + unit, it->second.median_ns / ns_per_unit);
    setMetric(m, span + "_calls",
              static_cast<double>(it->second.calls) / passes);
}

/** Phase deadline: `frac` of the traced budget after `start`. */
std::int64_t
deadline(std::int64_t start, double seconds, double frac)
{
    return start + static_cast<std::int64_t>(seconds * frac * 1e9);
}

/**
 * Untraced passes until `until`, and at least 100 so that ten lie
 * beyond the p90; each is checked against `first_output`. Returns the
 * host ms of each pass.
 */
std::vector<double>
timeUntracedPasses(Workload &w, std::int64_t until,
                   const std::string &first_output, CheckTally *checks)
{
    std::vector<double> ms;
    do {
        const std::int64_t a = nowNs();
        w.runPass();
        ms.push_back(msSince(a));
        checks->add(w.lastOutput() == first_output);
    } while (nowNs() < until || ms.size() < 100);
    return ms;
}

/**
 * The metrics every traced run takes from its untraced passes and its
 * replays: the pass p50 and p90, the part of the p50 no replayed layer
 * call accounts for, and the tracing overhead.
 */
void
setPassMetrics(Metrics *m, const Tracer &t,
               const std::vector<double> &runtime_ms,
               const std::vector<double> &untraced_replay_ms,
               std::size_t spans_per_replay)
{
    const double runtime_p50 = median(runtime_ms);
    setMetric(m, "core.runtime_pass_ms", runtime_p50);
    setMetric(m, "core.runtime_pass_ms_p90", percentile(runtime_ms, 0.9));
    setMetric(m, "core.unattributed_ms",
              runtime_p50 - median(t.layerSelfSumsNs("pass.replay")) / 1e6);
    const double traced_p50 = median(t.rootDurationsNs("pass.replay")) / 1e6;
    const double untraced_p50 = median(untraced_replay_ms);
    setMetric(m, "trace.traced_pass_ms", traced_p50);
    setMetric(m, "trace.untraced_pass_ms", untraced_p50);
    setMetric(m, "trace.overhead_ratio", traced_p50 / untraced_p50);
    setMetric(m, "trace.spans", static_cast<double>(spans_per_replay));
}

// ------------------------------------------------- analytical workloads

/**
 * What the two analytical workloads share: a pass through Evaluator,
 * the same jobs through serial evaluateBest (the reference, and the
 * base of runtime_vs_direct_ratio), and a traced replay of Evaluator's
 * per-job path (key, lookup, evaluate on a miss, insert) through the
 * public EvalCache.
 */
class Analytical : public Workload
{
  public:
    bool
    matchesReference() override
    {
        if (reference_.empty())
            reference_ = directPass();
        return lastOutput() == reference_;
    }

    void traced(Tracer &tracer, double seconds,
                const std::string &first_output, Metrics *metrics,
                CheckTally *checks) override;

  protected:
    /** Serial evaluateBest over the pass's jobs, no cache or service. */
    virtual std::string directPass() const = 0;

    /** The pass with a span around each Evaluator entry point. */
    virtual void tracedRuntimePass(Tracer &t) = 0;

    /** The pass's per-job path replayed call by call. */
    virtual std::string replayPass(Tracer &t) const = 0;

    /** Layer calls the pass makes inside a library call (probes). */
    virtual void probes(Tracer &) const {}

    /** Workload-specific metrics computed from the last pass. */
    virtual void extraMetrics(Metrics *) const {}

    /** Replays one job of Evaluator's per-job path under spans. */
    static EvalResult replayJob(Tracer &t, EvalCache &cache,
                                const Accelerator &accel,
                                const GemmWorkload &w);

    /** Evaluator::run on jobs the evaluator already holds (hits). */
    static void probeRunHits(Tracer &t, const Evaluator &ev,
                             const std::vector<EvalJob> &jobs);

    EvalCacheStats stats_; ///< Cache counters of the last pass.

  private:
    std::string reference_;
};

const char *
evalBestSpan(const std::string &design)
{
    static const std::map<std::string, std::string> names = [] {
        std::map<std::string, std::string> m;
        for (const char *d : kDesigns)
            m[d] = std::string("accel.eval_best.") + d;
        return m;
    }();
    const auto it = names.find(design);
    if (it == names.end())
        panic(msgOf("perfbench: unknown design ", design));
    return it->second.c_str();
}

EvalResult
Analytical::replayJob(Tracer &t, EvalCache &cache, const Accelerator &accel,
                      const GemmWorkload &w)
{
    int id = t.begin("runtime.cache_key");
    const std::string key = EvalCache::keyOf(accel.name(), w);
    t.end(id);
    EvalResult r;
    id = t.begin("runtime.cache_lookup");
    const bool hit = cache.lookup(key, w.name, &r);
    t.end(id, hit ? "runtime.cache_hit" : "runtime.cache_miss");
    if (hit)
        return r;
    id = t.begin(evalBestSpan(accel.name()));
    r = evaluateBest(accel, w);
    t.end(id);
    id = t.begin("runtime.cache_insert");
    cache.insert(key, r);
    t.end(id);
    return r;
}

void
Analytical::probeRunHits(Tracer &t, const Evaluator &ev,
                         const std::vector<EvalJob> &jobs)
{
    Scope root(t, "probes.runtime", SpanKind::Probe);
    for (const auto &j : jobs) {
        Scope s(t, "runtime.evaluator_run_hit", SpanKind::Probe);
        ev.run(j.design->name(), j.workload);
    }
}

void
Analytical::traced(Tracer &t, double seconds,
                   const std::string &first_output, Metrics *m,
                   CheckTally *checks)
{
    const std::int64_t start = nowNs();

    // Untraced passes: the base every per-layer figure is set against.
    t.setEnabled(false);
    const std::vector<double> runtime_ms = timeUntracedPasses(
        *this, deadline(start, seconds, 0.3), first_output, checks);
    const EvalCacheStats pass_stats = stats_;

    std::vector<double> direct_ms;
    do {
        const std::int64_t a = nowNs();
        const std::string out = directPass();
        direct_ms.push_back(msSince(a));
        checks->add(out == first_output);
    } while (nowNs() < deadline(start, seconds, 0.45) ||
             direct_ms.size() < 3);

    // Traced passes. The span count per pass is capped so the trace
    // file stays small enough to open.
    constexpr int kMaxTracedPasses = 5;
    t.setEnabled(true);
    int runtime_passes = 0;
    do {
        tracedRuntimePass(t);
        checks->add(lastOutput() == first_output);
        ++runtime_passes;
    } while (runtime_passes < kMaxTracedPasses &&
             (nowNs() < deadline(start, seconds, 0.6) ||
              runtime_passes < 2));

    // Replays alternate traced and untraced, so the tracing overhead
    // is measured on the same code path.
    int replay_passes = 0;
    std::vector<double> untraced_replay_ms;
    std::size_t spans_per_replay = 0;
    do {
        t.setEnabled(true);
        const std::size_t before = t.spans().size();
        checks->add(replayPass(t) == first_output);
        spans_per_replay = t.spans().size() - before;
        probes(t);
        ++replay_passes;
        t.setEnabled(false);
        const std::int64_t a = nowNs();
        const std::string out = replayPass(t);
        untraced_replay_ms.push_back(msSince(a));
        checks->add(out == first_output);
    } while (replay_passes < kMaxTracedPasses &&
             (nowNs() < deadline(start, seconds, 0.95) ||
              replay_passes < 2));
    t.setEnabled(true);

    const auto spans = t.summarize();
    const double rp = replay_passes;
    const double rt = runtime_passes;
    setTiming(m, spans, "sparsity.choose_spec", "us", rp);
    setTiming(m, spans, "core.build_dnn_workloads", "us", rp);
    setTiming(m, spans, "core.run_dnn", "ms", rt);
    setTiming(m, spans, "core.run_batch", "ms", rt);
    setTiming(m, spans, "core.evaluator_ctor", "us", rt + rp);
    setTiming(m, spans, "runtime.cache_key", "us", rp);
    setTiming(m, spans, "runtime.cache_hit", "us", rp);
    setTiming(m, spans, "runtime.cache_miss", "us", rp);
    setTiming(m, spans, "runtime.cache_insert", "us", rp);
    setTiming(m, spans, "runtime.evaluator_run_hit", "us", rt);
    double computed = 0.0;
    for (const char *d : kDesigns) {
        const std::string span = evalBestSpan(d);
        const auto it = spans.find(span);
        if (it == spans.end())
            continue;
        setMetric(m, std::string("accel.eval_best_us.") + d,
                  it->second.median_ns / 1e3);
        setMetric(m, std::string("accel.eval_best_calls.") + d,
                  static_cast<double>(it->second.calls) / rp);
        computed += static_cast<double>(it->second.calls) / rp;
    }
    setMetric(m, "accel.evals_computed", computed);
    setMetric(m, "runtime.cache_lookups",
              static_cast<double>(pass_stats.lookups()));
    setMetric(m, "runtime.cache_hit_ratio", pass_stats.hitRate());

    setPassMetrics(m, t, runtime_ms, untraced_replay_ms, spans_per_replay);
    const double direct_p50 = median(direct_ms);
    setMetric(m, "core.direct_pass_ms", direct_p50);
    setMetric(m, "core.runtime_vs_direct_ratio",
              median(runtime_ms) / direct_p50);
    extraMetrics(m);
}

// ---------------------------------------------------------- dnn_pareto

/** Fig 15's runDnn: accuracy loss, then layer totals in layer order. */
DnnEvalResult
reduceDnn(DnnName nm, const DnnScenario &sc,
          std::vector<EvalResult> results)
{
    DnnEvalResult out;
    out.design = sc.design;
    out.accuracy_loss =
        AccuracyModel::loss(nm, sc.approach, sc.weight_sparsity);
    for (EvalResult &r : results) {
        if (!r.supported) {
            out.supported = false;
            out.note = msgOf("layer ", r.workload, ": ", r.note);
            out.per_layer.clear();
            out.total_energy_pj = 0.0;
            out.total_cycles = 0.0;
            return out;
        }
        out.total_energy_pj += r.totalEnergyPj();
        out.total_cycles += r.cycles;
        out.per_layer.push_back(std::move(r));
    }
    return out;
}

/** The 16 co-design candidates of the fig15_pareto driver. */
std::vector<DnnScenario>
fig15Candidates()
{
    std::vector<DnnScenario> c;
    c.push_back({"TC", PruningApproach::Dense, 0.0});
    for (double s : {0.3, 0.5})
        c.push_back({"TC", PruningApproach::Channel, s});
    c.push_back({"STC", PruningApproach::OneRankGh, 0.5});
    for (double s : {0.5, 0.625, 0.75})
        c.push_back({"S2TA", PruningApproach::OneRankGh, s});
    for (double s : {0.5, 0.6, 0.7, 0.8, 0.9})
        c.push_back({"DSTC", PruningApproach::Unstructured, s});
    for (double s : {0.5, 0.6, 2.0 / 3.0, 0.75})
        c.push_back({"HighLight", PruningApproach::Hss, s});
    return c;
}

/**
 * Fig 15: 3 DNNs x 16 co-design candidates through Evaluator::runDnn.
 * The seed shuffles the order of the 48 runDnn calls, which sets the
 * order the cache fills in; the results do not depend on it.
 */
class DnnPareto final : public Analytical
{
  public:
    explicit DnnPareto(std::uint64_t seed)
    {
        models_.push_back({resnet50Model(), DnnName::ResNet50});
        models_.push_back({transformerBigModel(), DnnName::TransformerBig});
        models_.push_back({deitSmallModel(), DnnName::DeitSmall});
        for (std::size_t i = 0; i < models_.size(); ++i) {
            for (const auto &c : fig15Candidates())
                calls_.push_back({i, c});
        }
        Rng rng(seed);
        std::shuffle(calls_.begin(), calls_.end(), rng.engine());
        for (const auto &c : calls_)
            items_ += static_cast<double>(
                models_[c.model].model.layers.size());
    }

    double itemsPerPass() const override { return items_; }

    void
    runPass() override
    {
        const Evaluator ev{EvalCacheConfig{}};
        last_.clear();
        for (const auto &c : calls_) {
            const ModelCase &mc = models_[c.model];
            last_.push_back(ev.runDnn(mc.model, mc.nm, c.scenario));
        }
        stats_ = ev.cacheStats();
    }

    std::string
    lastOutput() const override
    {
        std::string out;
        for (const auto &r : last_)
            putDnn(out, r);
        return out;
    }

    void corruptLast() override { last_.front().total_cycles += 1.0; }

  protected:
    std::string
    directPass() const override
    {
        const Evaluator ev{EvalCacheConfig{}};
        std::string out;
        for (const auto &c : calls_) {
            const ModelCase &mc = models_[c.model];
            const Accelerator &accel = ev.design(c.scenario.design);
            std::vector<EvalResult> results;
            for (const auto &w : ev.buildDnnWorkloads(mc.model, c.scenario))
                results.push_back(evaluateBest(accel, w));
            putDnn(out, reduceDnn(mc.nm, c.scenario, std::move(results)));
        }
        return out;
    }

    void
    tracedRuntimePass(Tracer &t) override
    {
        const int pass = t.begin("pass.runtime", SpanKind::Pass);
        int id = t.begin("core.evaluator_ctor");
        const auto ev = std::make_unique<const Evaluator>(EvalCacheConfig{});
        t.end(id);
        last_.clear();
        for (const auto &c : calls_) {
            const ModelCase &mc = models_[c.model];
            Scope s(t, "core.run_dnn");
            last_.push_back(ev->runDnn(mc.model, mc.nm, c.scenario));
        }
        t.end(pass);
        // One hit per runDnn call: its first layer.
        std::vector<EvalJob> hits;
        for (const auto &c : calls_) {
            hits.push_back(
                {&ev->design(c.scenario.design),
                 ev->buildDnnWorkloads(models_[c.model].model, c.scenario)
                     .front()});
        }
        probeRunHits(t, *ev, hits);
    }

    std::string
    replayPass(Tracer &t) const override
    {
        Scope pass(t, "pass.replay", SpanKind::Pass);
        int id = t.begin("core.evaluator_ctor");
        const Evaluator ev{EvalCacheConfig{}};
        t.end(id);
        EvalCache cache{EvalCacheConfig{}};
        std::string out;
        for (const auto &c : calls_) {
            const ModelCase &mc = models_[c.model];
            id = t.begin("core.build_dnn_workloads");
            const auto suite = ev.buildDnnWorkloads(mc.model, c.scenario);
            t.end(id);
            const Accelerator &accel = ev.design(c.scenario.design);
            std::vector<EvalResult> results;
            results.reserve(suite.size());
            for (const auto &w : suite)
                results.push_back(replayJob(t, cache, accel, w));
            putDnn(out, reduceDnn(mc.nm, c.scenario, std::move(results)));
        }
        return out;
    }

    /**
     * chooseSpecForDensity runs inside buildDnnWorkloads, once per
     * prunable layer of every HSS scenario; these are the same calls.
     */
    void
    probes(Tracer &t) const override
    {
        Scope root(t, "probes.sparsity", SpanKind::Probe);
        for (const auto &c : calls_) {
            if (c.scenario.approach != PruningApproach::Hss ||
                c.scenario.weight_sparsity <= 0.0)
                continue;
            const double density = 1.0 - c.scenario.weight_sparsity;
            for (const auto &layer : models_[c.model].model.layers) {
                if (!layer.prunable)
                    continue;
                Scope s(t, "sparsity.choose_spec", SpanKind::Probe);
                sink_ += chooseSpecForDensity(highlightWeightSupport(),
                                              density)
                             .numRanks();
            }
        }
    }

  private:
    struct ModelCase
    {
        DnnModel model;
        DnnName nm;
    };
    struct Call
    {
        std::size_t model;
        DnnScenario scenario;
    };

    std::vector<ModelCase> models_;
    std::vector<Call> calls_;
    double items_ = 0.0;
    std::vector<DnnEvalResult> last_;
    mutable std::size_t sink_ = 0; ///< Keeps probed results live.
};

// ----------------------------------------------------- synthetic_sweep

/**
 * Fig 13/14: the 12 synthetic 1024^3 GEMMs x all 6 designs as one
 * Evaluator::runBatch. The seed shuffles the job order.
 */
class SyntheticSweep final : public Analytical
{
  public:
    explicit SyntheticSweep(std::uint64_t seed) : suite_(syntheticSuite())
    {
        for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
            for (std::size_t w = 0; w < suite_.size(); ++w)
                order_.push_back({d, w});
        }
        Rng rng(seed);
        std::shuffle(order_.begin(), order_.end(), rng.engine());
    }

    double
    itemsPerPass() const override
    {
        return static_cast<double>(order_.size());
    }

    void
    runPass() override
    {
        const Evaluator ev{EvalCacheConfig{}};
        last_ = ev.runBatch(jobsFor(ev));
        stats_ = ev.cacheStats();
    }

    std::string
    lastOutput() const override
    {
        std::string out;
        for (const auto &r : last_)
            putResult(out, r);
        return out;
    }

    void corruptLast() override { last_.front().cycles += 1.0; }

  protected:
    std::string
    directPass() const override
    {
        const Evaluator ev{EvalCacheConfig{}};
        std::string out;
        for (const auto &j : jobsFor(ev))
            putResult(out, evaluateBest(*j.design, j.workload));
        return out;
    }

    void
    tracedRuntimePass(Tracer &t) override
    {
        const int pass = t.begin("pass.runtime", SpanKind::Pass);
        int id = t.begin("core.evaluator_ctor");
        const auto ev = std::make_unique<const Evaluator>(EvalCacheConfig{});
        t.end(id);
        const auto jobs = jobsFor(*ev);
        id = t.begin("core.run_batch");
        last_ = ev->runBatch(jobs);
        t.end(id);
        t.end(pass);
        probeRunHits(t, *ev, jobs);
    }

    std::string
    replayPass(Tracer &t) const override
    {
        Scope pass(t, "pass.replay", SpanKind::Pass);
        const int id = t.begin("core.evaluator_ctor");
        const Evaluator ev{EvalCacheConfig{}};
        t.end(id);
        EvalCache cache{EvalCacheConfig{}};
        std::string out;
        for (const auto &j : jobsFor(ev))
            putResult(out, replayJob(t, cache, *j.design, j.workload));
        return out;
    }

    /** fig14's headline geomeans over the five-design lineup. */
    void
    extraMetrics(Metrics *m) const override
    {
        std::map<std::pair<std::string, std::size_t>, const EvalResult *>
            at;
        for (std::size_t i = 0; i < order_.size(); ++i)
            at[{kDesigns[order_[i].first], order_[i].second}] = &last_[i];
        std::vector<double> vs_tc, vs_sparse;
        for (std::size_t w = 0; w < suite_.size(); ++w) {
            const double hl = at[{"HighLight", w}]->edp();
            vs_tc.push_back(at[{"TC", w}]->edp() / hl);
            double best = 1e300;
            for (const char *d : {"STC", "S2TA", "DSTC"}) {
                const EvalResult *r = at[{d, w}];
                if (r->supported)
                    best = std::min(best, r->edp());
            }
            vs_sparse.push_back(best / hl);
        }
        setMetric(m, "fidelity.edp_gain_vs_tc_geomean", geomean(vs_tc));
        setMetric(m, "fidelity.edp_gain_vs_sparse_geomean",
                  geomean(vs_sparse));
    }

  private:
    std::vector<EvalJob>
    jobsFor(const Evaluator &ev) const
    {
        const auto designs = ev.designs();
        std::vector<EvalJob> jobs;
        jobs.reserve(order_.size());
        for (const auto &[d, w] : order_)
            jobs.push_back({designs[d], suite_[w]});
        return jobs;
    }

    std::vector<GemmWorkload> suite_;
    /** (design index, suite index) in submission order. */
    std::vector<std::pair<std::size_t, std::size_t>> order_;
    std::vector<EvalResult> last_;
};

// ---------------------------------------------------- microsim workloads

/**
 * HighlightSimulator::run on the Fig 16 validation config: M32 K1024
 * N128, A = C1(4:8)->C0(2:4), B dense or 65% unstructured with
 * compress_b on. The seed draws the A and B values.
 */
class Microsim final : public Workload
{
  public:
    static constexpr std::int64_t kM = 32, kK = 1024, kN = 128;

    Microsim(std::uint64_t seed, bool compress_b)
        : spec_({GhPattern(2, 4), GhPattern(4, 8)}),
          sim_(configFor(compress_b))
    {
        Rng rng(seed);
        a_ = hssSparsify(
            randomDense(TensorShape({{"M", kM}, {"K", kK}}), rng), spec_);
        b_ = randomDense(TensorShape({{"K", kK}, {"N", kN}}), rng);
        if (compress_b)
            b_ = unstructuredSparsify(b_, 0.65);
    }

    /** M x K/(H0*H1) x N processing steps. */
    double
    itemsPerPass() const override
    {
        return static_cast<double>(kM * (kK / setSpan()) * kN);
    }

    void runPass() override { last_ = sim_.run(a_, spec_, b_); }

    std::string
    lastOutput() const override
    {
        std::string out;
        putSim(out, last_);
        return out;
    }

    /** tests/test_microsim.cc's tolerance against the dense GEMM. */
    bool
    matchesReference() override
    {
        return last_.output.maxAbsDiff(referenceGemm(a_, b_)) < 1e-3;
    }

    void corruptLast() override { last_.output.data()[0] += 1.0f; }

    void traced(Tracer &t, double seconds, const std::string &first_output,
                Metrics *m, CheckTally *checks) override;

  private:
    static MicrosimConfig
    configFor(bool compress_b)
    {
        MicrosimConfig cfg;
        cfg.compress_b = compress_b;
        return cfg;
    }

    std::int64_t
    setSpan() const
    {
        return static_cast<std::int64_t>(spec_.rank(0).h) *
               spec_.rank(1).h;
    }

    /** run()'s inputs, built layer by layer (the replay's first half). */
    struct Prepared
    {
        std::unique_ptr<HierarchicalCpMatrix> a_cp;
        std::vector<float> stream;
        std::unique_ptr<OperandBStream> b_comp;
        SimContext ctx;
    };
    Prepared prepare(Tracer &t) const;

    std::string replayPass(Tracer &t) const;
    void probes(Tracer &t, int reps) const;

    HssSpec spec_;
    HighlightSimulator sim_;
    DenseTensor a_, b_;
    SimResult last_;
    mutable double sink_ = 0.0; ///< Keeps the probed work live.
};

Microsim::Prepared
Microsim::prepare(Tracer &t) const
{
    const MicrosimConfig &cfg = sim_.config();
    const int h0 = spec_.rank(0).h, h1 = spec_.rank(1).h;
    Prepared p;
    int id = t.begin("format.cp_compress");
    p.a_cp = std::make_unique<HierarchicalCpMatrix>(a_, spec_);
    t.end(id);
    id = t.begin("microsim.b_stream_build");
    p.stream = buildOrderedBStream(b_, setSpan());
    t.end(id);
    if (cfg.compress_b) {
        id = t.begin("format.b_compress");
        p.b_comp = std::make_unique<OperandBStream>(
            p.stream.data(), static_cast<std::int64_t>(p.stream.size()),
            h0, h1);
        t.end(id);
    }
    // Geometry as HighlightSimulator::run resolves it.
    SimContext &c = p.ctx;
    c.a_cp = p.a_cp.get();
    c.b_comp = p.b_comp.get();
    c.stream = p.b_comp ? p.b_comp->valuesData() : p.stream.data();
    c.stream_len = p.b_comp ? p.b_comp->dataWords()
                            : static_cast<std::int64_t>(p.stream.size());
    c.glb_row_words = cfg.glb_row_words;
    c.vfmu_capacity = std::max({2 * h1 * h0, 2 * cfg.glb_row_words,
                                h1 * h0 + cfg.glb_row_words});
    c.g0 = spec_.rank(0).g;
    c.h0 = h0;
    c.g1 = spec_.rank(1).g;
    c.h1 = h1;
    c.two_rank = true;
    c.groups = kK / setSpan();
    c.n = kN;
    return p;
}

std::string
Microsim::replayPass(Tracer &t) const
{
    Scope pass(t, "pass.replay", SpanKind::Pass);
    const Prepared p = prepare(t);
    const int group = static_cast<int>(std::min<std::int64_t>(
        kM, MicrosimConfig::kDefaultGroupRows));
    SimResult r{DenseTensor(TensorShape({{"M", kM}, {"N", kN}})), {}};
    const int id = t.begin("microsim.worker_ctor");
    RowGroupWorker worker(p.ctx, group);
    t.end(id);
    for (std::int64_t row0 = 0; row0 < kM; row0 += group) {
        Scope s(t, "microsim.row_group");
        worker.runGroup(row0,
                        static_cast<int>(std::min<std::int64_t>(
                            group, kM - row0)),
                        r.output);
    }
    r.stats = worker.stats();
    std::string out;
    putSim(out, r);
    return out;
}

/**
 * The inner-loop calls, each timed as one loop: a VFMU pass over the
 * real operand-B stream with the pass's shift counts, the PE steps of
 * one row group over the dense-ordered B values, and an empty
 * parallelForGroups over run()'s row groups.
 */
void
Microsim::probes(Tracer &t, int reps) const
{
    const bool was = t.enabled();
    t.setEnabled(false);
    const Prepared p = prepare(t);
    t.setEnabled(was);
    const SimContext &c = p.ctx;
    const std::int64_t sets = c.groups * c.n;
    const std::int64_t span = setSpan();
    const int group = static_cast<int>(std::min<std::int64_t>(
        kM, MicrosimConfig::kDefaultGroupRows));

    MicroGlb glb(c.stream, c.stream_len, c.glb_row_words);
    Vfmu vfmu(glb, c.vfmu_capacity);
    std::vector<float> words(static_cast<std::size_t>(span));
    std::vector<float> dense = buildOrderedBStream(b_, span);
    MicroPe pe(c.g0);
    double acc = 0.0;
    ThreadPool &pool = ThreadPool::global();

    Scope root(t, "probes.microsim", SpanKind::Probe);
    for (int rep = 0; rep < reps; ++rep) {
        glb.reset();
        vfmu.reset();
        int id = t.begin("microsim.vfmu_read_shift", SpanKind::Probe);
        std::int64_t got = 0;
        for (std::int64_t s = 0; s < sets; ++s) {
            const std::int64_t count = c.b_comp ? c.b_comp->setCountAt(s)
                                                : span;
            got += vfmu.readShift(static_cast<int>(count), words.data());
        }
        t.end(id, nullptr, sets);
        acc += static_cast<double>(got);

        std::int64_t steps = 0;
        id = t.begin("microsim.pe_step", SpanKind::Probe);
        for (int r = 0; r < group; ++r) {
            const HierarchicalCpRow &row = c.a_cp->row(r);
            const float *vals = row.values().data();
            const std::uint8_t *offs0 = row.offsets(0).data();
            const std::uint8_t *offs1 = row.offsets(1).data();
            for (std::int64_t g = 0; g < c.groups; ++g) {
                for (int q = 0; q < c.g1; ++q) {
                    const std::int64_t e = g * c.g1 + q;
                    pe.loadBlock(vals + e * c.g0, offs0 + e * c.g0);
                    const float *base =
                        dense.data() + g * c.n * span + offs1[e] * c.h0;
                    for (std::int64_t col = 0; col < c.n; ++col)
                        acc += pe.step(base + col * span, c.h0);
                    steps += c.n;
                }
            }
        }
        t.end(id, nullptr, steps);

        id = t.begin("runtime.pool_fork_join", SpanKind::Probe);
        pool.parallelForGroups(static_cast<std::size_t>(kM),
                               static_cast<std::size_t>(group),
                               [](std::size_t, std::size_t) {});
        t.end(id);
    }
    sink_ += acc;
}

void
Microsim::traced(Tracer &t, double seconds, const std::string &first_output,
                 Metrics *m, CheckTally *checks)
{
    const std::int64_t start = nowNs();
    t.setEnabled(false);
    const std::vector<double> runtime_ms = timeUntracedPasses(
        *this, deadline(start, seconds, 0.3), first_output, checks);

    constexpr int kMaxReplays = 200;
    int replays = 0;
    std::vector<double> untraced_replay_ms;
    std::size_t spans_per_replay = 0;
    do {
        t.setEnabled(true);
        const std::size_t before = t.spans().size();
        checks->add(replayPass(t) == first_output);
        spans_per_replay = t.spans().size() - before;
        ++replays;
        t.setEnabled(false);
        const std::int64_t a = nowNs();
        const std::string out = replayPass(t);
        untraced_replay_ms.push_back(msSince(a));
        checks->add(out == first_output);
    } while (replays < kMaxReplays &&
             (nowNs() < deadline(start, seconds, 0.8) || replays < 5));
    t.setEnabled(true);
    probes(t, 50);

    const auto spans = t.summarize();
    const double rp = replays;
    setTiming(m, spans, "format.cp_compress", "ms", rp);
    setTiming(m, spans, "format.b_compress", "ms", rp);
    setTiming(m, spans, "microsim.b_stream_build", "ms", rp);
    setTiming(m, spans, "microsim.worker_ctor", "us", rp);
    setTiming(m, spans, "microsim.row_group", "us", rp);
    // A pass makes one readShift per (row group, set) and one PE step
    // per (row, set, PE); the probes time the same calls.
    const double row_groups =
        std::ceil(static_cast<double>(kM) /
                  static_cast<double>(MicrosimConfig::kDefaultGroupRows));
    const SimStats &s = last_.stats;
    const double sets = static_cast<double>(s.cycles) / kM;
    setMetric(m, "microsim.vfmu_read_shift_ns",
              spans.at("microsim.vfmu_read_shift").median_ns);
    setMetric(m, "microsim.vfmu_read_shift_calls", row_groups * sets);
    setMetric(m, "microsim.pe_step_ns",
              spans.at("microsim.pe_step").median_ns);
    setMetric(m, "microsim.pe_step_calls",
              static_cast<double>(s.cycles) * spec_.rank(1).g);
    // run() makes one parallelForGroups call per pass.
    setMetric(m, "runtime.pool_fork_join_us",
              spans.at("runtime.pool_fork_join").median_ns / 1e3);
    setMetric(m, "runtime.pool_fork_join_calls", 1.0);

    setMetric(m, "microsim.cycles", static_cast<double>(s.cycles));
    setMetric(m, "microsim.glb_row_fetches",
              static_cast<double>(s.glb_b.row_fetches));
    setMetric(m, "microsim.glb_words_read",
              static_cast<double>(s.glb_b.words_read));
    setMetric(m, "microsim.vfmu_shifts", static_cast<double>(s.vfmu.shifts));
    setMetric(m, "microsim.vfmu_skipped_fetches",
              static_cast<double>(s.vfmu.skipped_fetches));
    setMetric(m, "microsim.pe_mac_ops", static_cast<double>(s.pe.mac_ops));
    setMetric(m, "microsim.pe_gated_macs",
              static_cast<double>(s.pe.gated_macs));

    setPassMetrics(m, t, runtime_ms, untraced_replay_ms, spans_per_replay);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "dnn_pareto", "synthetic_sweep", "microsim_dense_b",
        "microsim_sparse_b"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "dnn_pareto")
        return std::make_unique<DnnPareto>(seed);
    if (name == "synthetic_sweep")
        return std::make_unique<SyntheticSweep>(seed);
    if (name == "microsim_dense_b")
        return std::make_unique<Microsim>(seed, false);
    if (name == "microsim_sparse_b")
        return std::make_unique<Microsim>(seed, true);
    return nullptr;
}

Metrics
zeroPerLayerMetrics()
{
    Metrics m;
    const auto add = [&](const std::string &name, const char *unit) {
        m[name] = Metric{0.0, unit};
    };
    const auto timing = [&](const std::string &stem, const char *unit) {
        add(stem + "_" + unit, unit);
        add(stem + "_calls", "count");
    };
    timing("sparsity.choose_spec", "us");
    timing("core.build_dnn_workloads", "us");
    timing("core.run_dnn", "ms");
    timing("core.run_batch", "ms");
    timing("core.evaluator_ctor", "us");
    timing("runtime.cache_key", "us");
    timing("runtime.cache_hit", "us");
    timing("runtime.cache_miss", "us");
    timing("runtime.cache_insert", "us");
    timing("runtime.evaluator_run_hit", "us");
    add("runtime.cache_lookups", "count");
    add("runtime.cache_hit_ratio", "ratio");
    add("core.runtime_pass_ms", "ms");
    add("core.runtime_pass_ms_p90", "ms");
    add("core.direct_pass_ms", "ms");
    add("core.runtime_vs_direct_ratio", "ratio");
    add("core.unattributed_ms", "ms");
    for (const char *d : kDesigns) {
        add(std::string("accel.eval_best_us.") + d, "us");
        add(std::string("accel.eval_best_calls.") + d, "count");
    }
    add("accel.evals_computed", "count");
    timing("format.cp_compress", "ms");
    timing("format.b_compress", "ms");
    timing("microsim.b_stream_build", "ms");
    timing("microsim.worker_ctor", "us");
    timing("microsim.row_group", "us");
    timing("microsim.vfmu_read_shift", "ns");
    timing("microsim.pe_step", "ns");
    timing("runtime.pool_fork_join", "us");
    for (const char *c : {"cycles", "glb_row_fetches", "glb_words_read",
                          "vfmu_shifts", "vfmu_skipped_fetches",
                          "pe_mac_ops", "pe_gated_macs"})
        add(std::string("microsim.") + c, "count");
    add("fidelity.edp_gain_vs_tc_geomean", "x");
    add("fidelity.edp_gain_vs_sparse_geomean", "x");
    add("trace.traced_pass_ms", "ms");
    add("trace.untraced_pass_ms", "ms");
    add("trace.overhead_ratio", "ratio");
    add("trace.spans", "count");
    return m;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace perfbench
