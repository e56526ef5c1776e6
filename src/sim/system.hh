/**
 * @file
 * Full-system assembly: cores -> shared L3 -> memory-side cache ->
 * DDR main memory, with a pluggable partitioning policy.
 */

#ifndef DAPSIM_SIM_SYSTEM_HH
#define DAPSIM_SIM_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "cpu/rob_core.hh"
#include "cpu/stride_prefetcher.hh"
#include "dap/analytic_engine.hh"
#include "dap/dap_controller.hh"
#include "dram/presets.hh"
#include "memside/alloy_cache.hh"
#include "memside/remote_memory.hh"
#include "memside/sectored_dram_cache.hh"
#include "obs/obs_config.hh"
#include "policies/batman.hh"
#include "policies/bear.hh"
#include "policies/sbd.hh"
#include "sim/fidelity.hh"
#include "sim/l3_cache.hh"
#include "trace/access_gen.hh"

namespace dapsim
{

namespace obs
{
class Observability;
} // namespace obs

/** Which memory-side cache architecture the system uses. */
enum class MsArch
{
    Sectored,
    Alloy,
    Edram,
    None, ///< main memory only (tests / reference runs)
};

/** Which partitioning policy runs on top of the MS$. */
enum class PolicyKind
{
    Baseline,
    Dap,
    Sbd,
    SbdWt,
    Batman,
    Bear,
};

/** Complete system configuration. */
struct SystemConfig
{
    std::uint32_t numCores = 8;
    CoreConfig core{};
    L3Config l3{};

    MsArch arch = MsArch::Sectored;
    SectoredDramCacheConfig sectored{};
    AlloyCacheConfig alloy{};
    EdramCacheConfig edram{};

    DramConfig mainMemory = presets::ddr4_2400();

    /** Optional third bandwidth tier (CXL/RDMA-attached remote pool);
     *  disabled by default, and bit-identical to a 2-tier system when
     *  disabled. */
    RemoteConfig remote{};

    PolicyKind policy = PolicyKind::Baseline;
    /** DAP parameters; bandwidth fields are auto-filled from the
     *  architecture configs. */
    DapConfig dap{};
    SbdConfig sbd{};
    BatmanConfig batman{};
    BearConfig bear{};

    PrefetcherConfig prefetch{};

    /** Window length fed to MemSideCache::startWindows. */
    Cycle windowCycles = 64;

    /** Functional warm-up accesses per core before the timed run;
     *  0 selects ~2x the MS$ capacity in aggregate block touches. */
    std::uint64_t warmupAccessesPerCore = 0;

    /** Simulation fidelity (exact / sampled / analytic). Exact keeps
     *  the historical cycle-accurate path bit-identical; the other
     *  modes are driven by sim/fidelity_runner.cc. Excluded from
     *  checkpoint state hashing — the warm state is fidelity-
     *  invariant. */
    FidelityConfig fidelity{};

    /** Opt-in observability (time-series sampling, DAP tracing,
     *  Chrome trace export); all outputs default to off. Excluded
     *  from checkpoint state hashing — observers never alter
     *  simulated state. */
    obs::ObsConfig obs{};

    /** MS$ capacity in bytes for the active architecture. */
    std::uint64_t msCapacityBytes() const;

    /** The warm-up length every run path executes:
     *  warmupAccessesPerCore, or when 0, 2 x MS$ blocks / cores. */
    std::uint64_t warmupPerCore() const;
};

/** A fully wired simulated system. */
class System
{
  public:
    /**
     * @param cfg  the configuration (copied)
     * @param gens one access generator per core (cfg.numCores of them)
     */
    System(const SystemConfig &cfg,
           std::vector<AccessGeneratorPtr> gens);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Functional cache warm-up: pull @p accesses_per_core records from
     * each core's generator (round-robin) through the warm path so the
     * timed run starts from steady-state directories. Warm-up
     * perturbations to predictor statistics are reset afterwards.
     * Runs the generator -> L3 -> MS$ pipeline of sim/warm_pipeline.hh
     * on this thread plus two joined before it returns; the state it
     * leaves is that of the serial record-by-record loop.
     */
    void warmup(std::uint64_t accesses_per_core);

    /** Run until every core has retired its instruction target (or
     *  @p max_ticks elapses). */
    void run(Tick max_ticks = ~Tick(0) >> 1);

    /**
     * The pieces of run() factored out so the sampled-fidelity runner
     * can interleave detailed segments with analytic fast-forward:
     * startRun() arms sampling/windows and starts the cores,
     * finishRun() halts them. run() is exactly startRun() +
     * runUntil(allCoresFinished) + finishRun().
     */
    void startRun();
    void finishRun();

    /**
     * Dispatch events until every core has retired at least
     * @p target_per_core instructions (cumulative since start), or
     * @p max_ticks elapses. Cores keep their own instruction targets
     * (rate mode); this is the sampled-fidelity detailed-segment loop.
     */
    void runDetailedUntilRetired(std::uint64_t target_per_core,
                                 Tick max_ticks = ~Tick(0) >> 1);

    /** What one fastForward() call pulled through the warm path. */
    struct FastForwardPull
    {
        std::uint64_t reads = 0;        ///< demand reads pulled
        std::uint64_t writes = 0;       ///< demand writes pulled
        std::uint64_t l3Hits = 0;
        std::uint64_t l3Misses = 0;
        std::uint64_t msReads = 0;      ///< demand reads reaching the MS$
        std::uint64_t msHits = 0;       ///< ...that found their block
        std::uint64_t msWritebacks = 0; ///< dirty L3 victims to the MS$
        std::uint64_t instr = 0;        ///< aggregate instructions
        std::vector<std::uint64_t> instrPerCore;
    };

    /**
     * Analytic fast-forward: advance every core's access stream by
     * @p instr_per_core instructions *functionally* — records are
     * pulled through the L3/MS$ warm path (directories, tag cache and
     * footprint history stay in sync with where the stream now is) with
     * zero event time and zero timed statistics. The caller prices the
     * skipped interval with fastfwd::AnalyticEngine and accounts it via
     * creditFastForward(). Never called in exact fidelity.
     */
    FastForwardPull fastForward(std::uint64_t instr_per_core);

    /** Cumulative per-source access counters (sampled-fidelity window
     *  measurement; reads cheap snapshots, no stats reset). */
    struct SourceSnapshot
    {
        std::uint64_t retired = 0; ///< aggregate retired instructions
        std::uint64_t msReads = 0, msWrites = 0; ///< MS$ array CAS
        std::uint64_t mmReads = 0, mmWrites = 0; ///< DDR CAS
        std::uint64_t remReads = 0, remWrites = 0;
    };
    SourceSnapshot sourceSnapshot() const;

    /** Fast-forward bypass accounting: fold a modeled chunk's access
     *  counts into the DRAM/MS$-array/remote counters so delivered-
     *  bandwidth stats cover fast-forwarded traffic. Timing state is
     *  untouched. Never called in exact fidelity. */
    void creditFastForward(const fastfwd::FastForwardChunk &ff);

    /** Functional DAP-credit warm-up at a sampled window entry: feed
     *  the policy one modeled steady-state window so its credit state
     *  re-converges before the next detailed segment. */
    void warmPolicyWindow(const WindowCounters &modeled);

    EventQueue &eventQueue() { return eq_; }
    DramSystem &mainMemory() { return *mm_; }
    /** The remote tier, or nullptr when cfg.remote is disabled. */
    RemoteMemory *remoteMemory() { return remote_.get(); }
    MemSideCache *msCache() { return ms_.get(); }
    L3Cache &l3() { return *l3_; }
    PartitionPolicy &policy() { return *policy_; }
    RobCore &core(std::uint32_t i) { return *cores_[i]; }
    std::uint32_t numCores() const { return cfg_.numCores; }
    const SystemConfig &config() const { return cfg_; }

    /** The DAP policy, or nullptr when another policy is active. */
    DapPolicy *dapPolicy();

    /** The observability bundle, or nullptr when cfg.obs selects
     *  nothing. Tracers flush when the System is destroyed; call
     *  obs()->finish() to read outputs earlier. */
    obs::Observability *observability() { return obs_.get(); }

    /**
     * Checkpoint every stateful component (see src/ckpt/). Must be
     * called at tick 0 before run() — the quiescent point where the
     * only scheduled events are the construction-time ones a freshly
     * built identical System reproduces. Throws ckpt::CkptError
     * otherwise.
     */
    void save(ckpt::Serializer &s) const;

    /**
     * Restore component state saved by save() into this freshly
     * constructed System. With @p skip_policy the checkpoint's policy
     * section is ignored (warmup-fork: warm state is policy-invariant,
     * so a checkpoint taken under one policy seeds any other).
     * Throws ckpt::CkptError on any mismatch.
     */
    void restore(ckpt::Deserializer &d, bool skip_policy = false);

    /** Dump every component's statistics as `group.name value` rows
     *  (gem5-style stats file). */
    void dumpStats(std::ostream &os);

    bool allCoresFinished() const;

  private:
    /** Fill cfg_.dap's bandwidth fields from the architecture. */
    void deriveDapConfig();
    void buildPolicy();
    void buildMsCache();
    /** Build and attach the obs bundle selected by cfg_.obs. */
    void setupObservability();

    /** Tenant name -> member core indices, from obs.coreTenants
     *  (first-seen order; empty when attribution is off). */
    std::vector<std::pair<std::string, std::vector<std::uint32_t>>>
    tenantViews() const;

    SystemConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<DramSystem> mm_;
    std::unique_ptr<RemoteMemory> remote_;
    std::unique_ptr<PartitionPolicy> policy_;
    std::unique_ptr<MemSideCache> ms_;
    std::unique_ptr<L3Cache> l3_;
    std::vector<AccessGeneratorPtr> gens_;
    std::vector<std::unique_ptr<RobCore>> cores_;
    std::vector<std::unique_ptr<StridePrefetcher>> prefetchers_;
    /** Scratch for the per-access prefetch candidate list (the issue
     *  path runs to completion before the next access, so one buffer
     *  serves all cores without a per-read vector allocation). */
    std::vector<Addr> pfScratch_;
    /** Declared last: observers hold pointers into the components
     *  above, so they must be destroyed (and flushed) first. */
    std::unique_ptr<obs::Observability> obs_;
};

/** Peak 64B accesses/CPU-cycle of the configured MS$ (DAP's B_MS$). */
double msPeakAccPerCycle(const SystemConfig &cfg);

} // namespace dapsim

#endif // DAPSIM_SIM_SYSTEM_HH
