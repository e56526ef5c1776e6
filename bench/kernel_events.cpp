/**
 * @file
 * Event-kernel benchmark: scheduler and directory microbenchmarks,
 * emitted as BENCH_kernel.json.
 *
 * Five scheduler rows drive the production `EventQueue` (the timing
 * wheel over one node slab, DESIGN.md §9) and the frozen reference
 * heap (`tests/reference_event_queue.hh`) through identical event
 * populations: self-rescheduling storms with 512 and 4096 chains in
 * flight, same-tick bursts, mixed near/far horizons, and 40-byte
 * captures that overflow std::function's inline buffer. Each reports
 * dispatched events per second for both queues. Two directory rows do
 * the same for the SoA `AssocCache` against the frozen AoS oracle
 * (`tests/reference_assoc_cache.hh`): a hit-dominated probe storm and
 * a miss-dominated fill/evict churn, in operations per second.
 *
 * Every row is the best of three repetitions per side, the reference
 * and the kernel alternating so a slow spell on a shared host hits
 * both. The JSON committed at the repo root holds, for each scheduler
 * row, the row of the run with the median speedup over at least five
 * Release runs, so one noisy run cannot set the bar. CI re-runs this
 * binary in a Release build and fails if any row's speedup (kernel
 * over reference: a ratio, so the check is hardware-independent)
 * falls more than 10% below the committed one.
 *
 * Usage: kernel_events [--out FILE]
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/assoc_cache.hh"
#include "common/event_queue.hh"
#include "common/json_writer.hh"
#include "common/rng.hh"
#include "reference_assoc_cache.hh"
#include "reference_event_queue.hh"

using namespace dapsim;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Self-rescheduling storm: @p chains concurrent event chains, each
 * rescheduling itself a pseudo-random near-future delta ahead, the
 * steady-state shape of channel kicks and CAS completions.
 */
template <class Q>
std::uint64_t
stormSelfResched(Q &eq, std::uint64_t total, std::uint32_t chains)
{
    std::uint64_t executed = 0;
    struct Chain
    {
        Q *eq;
        Rng rng;
        std::uint64_t *executed;
        std::uint64_t budget;

        void
        fire()
        {
            ++*executed;
            if (budget-- == 0)
                return;
            eq->scheduleAfter(1 + rng.below(20'000),
                              [this] { fire(); });
        }
    };
    std::vector<Chain> state;
    state.reserve(chains);
    const std::uint64_t per = total / chains;
    for (std::uint32_t c = 0; c < chains; ++c) {
        state.push_back(Chain{&eq, Rng(c + 1), &executed, per});
        Chain *ch = &state.back();
        eq.schedule(1 + ch->rng.below(20'000), [ch] { ch->fire(); });
    }
    eq.run();
    return executed;
}

/**
 * Same-tick bursts: @p chains chains stepping in lockstep on a
 * 250 ps CPU clock edge, so every populated tick carries a burst of
 * simultaneous events (the clock-edge clustering the wheel exploits).
 */
template <class Q>
std::uint64_t
sameTickBurst(Q &eq, std::uint64_t total, std::uint32_t chains)
{
    std::uint64_t executed = 0;
    struct Chain
    {
        Q *eq;
        std::uint64_t *executed;
        std::uint64_t budget;

        void
        fire()
        {
            ++*executed;
            if (budget-- == 0)
                return;
            eq->scheduleAfter(250, [this] { fire(); });
        }
    };
    std::vector<Chain> state;
    state.reserve(chains);
    const std::uint64_t per = total / chains;
    for (std::uint32_t c = 0; c < chains; ++c) {
        state.push_back(Chain{&eq, &executed, per});
        Chain *ch = &state.back();
        eq.schedule(250, [ch] { ch->fire(); });
    }
    eq.run();
    return executed;
}

/**
 * Mixed horizons: mostly near-future chains plus refresh-period and
 * sampler-period chains that overflow any bounded wheel window.
 */
template <class Q>
std::uint64_t
mixedHorizon(Q &eq, std::uint64_t total, std::uint32_t chains)
{
    std::uint64_t executed = 0;
    struct Chain
    {
        Q *eq;
        Rng rng;
        std::uint64_t *executed;
        std::uint64_t budget;
        Tick farPeriod; ///< 0 selects random near-future deltas

        void
        fire()
        {
            ++*executed;
            if (budget-- == 0)
                return;
            const Tick dt =
                farPeriod ? farPeriod : 1 + rng.below(40'000);
            eq->scheduleAfter(dt, [this] { fire(); });
        }
    };
    std::vector<Chain> state;
    state.reserve(chains + 9);
    const std::uint64_t per = total / chains;
    for (std::uint32_t c = 0; c < chains; ++c)
        state.push_back(Chain{&eq, Rng(c + 1), &executed, per, 0});
    // Refresh-like chains (tREFI at DDR4-2400) and one sampler-like.
    for (int c = 0; c < 8; ++c)
        state.push_back(Chain{&eq, Rng(0), &executed, per,
                              7'812'500});
    state.push_back(Chain{&eq, Rng(0), &executed, per, 2'500'000});
    for (auto &ch : state) {
        Chain *p = &ch;
        eq.schedule(1 + p->rng.below(40'000), [p] { p->fire(); });
    }
    eq.run(static_cast<Tick>(per) * 45'000);
    return executed;
}

/**
 * Large captures: callbacks carrying 40 bytes of state — more than
 * std::function's inline buffer, so the reference heap allocates per
 * event while an SBO callback type does not.
 */
template <class Q>
std::uint64_t
largeCapture(Q &eq, std::uint64_t total, std::uint32_t chains)
{
    std::uint64_t executed = 0;
    struct Chain
    {
        Q *eq;
        Rng rng;
        std::uint64_t *executed;
        std::uint64_t budget;

        void
        fire(std::uint64_t a, std::uint64_t b, std::uint64_t c,
             std::uint64_t d)
        {
            *executed += 1 + ((a + b + c + d) & 0); // keep payload live
            if (budget-- == 0)
                return;
            Chain *self = this;
            eq->scheduleAfter(1 + rng.below(20'000),
                              [self, a, b, c, d] {
                                  self->fire(a, b, c, d);
                              });
        }
    };
    std::vector<Chain> state;
    state.reserve(chains);
    const std::uint64_t per = total / chains;
    for (std::uint32_t c = 0; c < chains; ++c) {
        state.push_back(Chain{&eq, Rng(c + 1), &executed, per});
        Chain *ch = &state.back();
        eq.schedule(1 + ch->rng.below(20'000),
                    [ch] { ch->fire(1, 2, 3, 4); });
    }
    eq.run();
    return executed;
}

/** Per-line metadata shaped like the sectored MS$ sector entry
 *  (three packed words: presence/dirty bitmaps plus a counter). */
struct DirMeta
{
    std::uint64_t present = 0;
    std::uint64_t dirty = 0;
    std::uint64_t touched = 0;
};

/**
 * Hit-dominated tag-directory probe storm: the steady-state shape of
 * the MS$/tag-cache lookup path. Pre-fills the whole directory, then
 * random find+touch over resident tags.
 */
template <class C>
std::uint64_t
dirProbeHits(C &dir, std::uint64_t ops, std::uint64_t sets,
             std::uint32_t ways)
{
    for (std::uint64_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < ways; ++w)
            (void)dir.insert(s, 1000 + w, DirMeta{w, s, 0});
    Rng rng(7);
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t set = rng.below(sets);
        const std::uint64_t tag = 1000 + rng.below(ways);
        if (DirMeta *m = dir.find(set, tag)) {
            ++m->touched;
            dir.touch(set, tag);
            ++hits;
        }
    }
    return hits == ops ? ops : 0; // all probes must hit
}

/**
 * Miss-dominated directory churn: a working set 4x the capacity, so
 * most probes miss and insert over an evicted victim — the fill path
 * a bandwidth-bound MS$ spends its time on.
 */
template <class C>
std::uint64_t
dirChurn(C &dir, std::uint64_t ops, std::uint64_t sets,
         std::uint32_t ways)
{
    Rng rng(11);
    const std::uint64_t tagSpace = 4ULL * ways;
    std::uint64_t victims = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t set = rng.below(sets);
        const std::uint64_t tag = rng.below(tagSpace);
        if (DirMeta *m = dir.find(set, tag)) {
            ++m->touched;
            dir.touch(set, tag);
        } else {
            victims +=
                dir.insert(set, tag, DirMeta{tag, set, 0}).valid;
        }
    }
    return victims == 0 ? 0 : ops; // churn must actually evict
}

struct Rate
{
    std::uint64_t events;
    double eventsPerSec;
};

/** Best-of-@p reps rates of @p ref and @p kernel, each of which
 *  builds its own subject and returns its operation count; the two
 *  sides run alternately. */
template <class RefFn, class KernelFn>
std::pair<Rate, Rate>
measurePair(RefFn ref, KernelFn kernel, int reps)
{
    std::pair<Rate, Rate> best{Rate{0, 0.0}, Rate{0, 0.0}};
    const auto time = [](auto &run, Rate &into) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t n = run();
        const double rate = static_cast<double>(n) / secondsSince(t0);
        if (rate > into.eventsPerSec)
            into = Rate{n, rate};
    };
    for (int r = 0; r < reps; ++r) {
        time(ref, best.first);
        time(kernel, best.second);
    }
    return best;
}

struct ScenarioResult
{
    std::string name;
    Rate ref;
    Rate wheel;
};

/** Dispatched events per microbenchmark scenario (per rep). */
constexpr std::uint64_t kEvents = 3'000'000;

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_kernel.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::cerr << "usage: kernel_events [--out FILE]\n";
            return 2;
        }
    }

    constexpr int kReps = 3;
    std::vector<ScenarioResult> results;

    const auto bench = [&](const std::string &name, auto scenario) {
        ScenarioResult r;
        r.name = name;
        std::tie(r.ref, r.wheel) = measurePair(
            [&] {
                RefEventQueue eq;
                return scenario(eq);
            },
            [&] {
                EventQueue eq;
                return scenario(eq);
            },
            kReps);
        std::cout << name << ": ref "
                  << static_cast<std::uint64_t>(r.ref.eventsPerSec)
                  << " ev/s, kernel "
                  << static_cast<std::uint64_t>(r.wheel.eventsPerSec)
                  << " ev/s ("
                  << r.wheel.eventsPerSec / r.ref.eventsPerSec
                  << "x)\n";
        results.push_back(std::move(r));
    };

    bench("storm_selfresched_512", [](auto &eq) {
        return stormSelfResched(eq, kEvents, 512);
    });
    bench("storm_selfresched_4096", [](auto &eq) {
        return stormSelfResched(eq, kEvents, 4096);
    });
    bench("same_tick_burst_512", [](auto &eq) {
        return sameTickBurst(eq, kEvents, 512);
    });
    bench("mixed_horizon_1024", [](auto &eq) {
        return mixedHorizon(eq, kEvents, 1024);
    });
    bench("large_capture_512", [](auto &eq) {
        return largeCapture(eq, kEvents, 512);
    });

    const auto benchDir = [&](const std::string &name,
                              std::uint64_t sets, std::uint32_t ways,
                              ReplPolicy policy, auto scenario) {
        ScenarioResult r;
        r.name = name;
        std::tie(r.ref, r.wheel) = measurePair(
            [&] {
                RefAssocCache<DirMeta> dir(sets, ways, policy);
                return scenario(dir, kEvents, sets, ways);
            },
            [&] {
                AssocCache<DirMeta> dir(sets, ways, policy);
                return scenario(dir, kEvents, sets, ways);
            },
            kReps);
        std::cout << name << ": ref "
                  << static_cast<std::uint64_t>(r.ref.eventsPerSec)
                  << " op/s, kernel "
                  << static_cast<std::uint64_t>(r.wheel.eventsPerSec)
                  << " op/s ("
                  << r.wheel.eventsPerSec / r.ref.eventsPerSec
                  << "x)\n";
        results.push_back(std::move(r));
    };

    // Directory shapes mirror production users: the 16-way NRU
    // tag-cache/MS$ directory and an 8-way LRU fill/evict path.
    benchDir("dir_probe_hits_2048x16", 2048, 16, ReplPolicy::NRU,
             [](auto &dir, std::uint64_t ops, std::uint64_t sets,
                std::uint32_t ways) {
                 return dirProbeHits(dir, ops, sets, ways);
             });
    benchDir("dir_churn_4096x8", 4096, 8, ReplPolicy::LRU,
             [](auto &dir, std::uint64_t ops, std::uint64_t sets,
                std::uint32_t ways) {
                 return dirChurn(dir, ops, sets, ways);
             });

    json::JsonWriter w;
    w.beginObject();
    w.key("schema").value("dapsim.benchkernel.v1");
    w.key("kernel").beginArray();
    for (const auto &r : results) {
        w.beginObject();
        w.key("name").value(r.name);
        w.key("events").value(r.ref.events);
        w.key("ref_events_per_sec").value(r.ref.eventsPerSec);
        w.key("kernel_events_per_sec").value(r.wheel.eventsPerSec);
        w.key("speedup").value(r.wheel.eventsPerSec /
                               r.ref.eventsPerSec);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    std::ofstream os(out);
    os << w.str() << '\n';
    if (!os) {
        std::cerr << "kernel_events: cannot write " << out << '\n';
        return 1;
    }
    std::cout << "wrote " << out << '\n';
    return 0;
}
