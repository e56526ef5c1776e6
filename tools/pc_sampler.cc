/**
 * @file
 * Dense wall-clock PC sampler for tools/profile.sh, loaded with
 * LD_PRELOAD into the process being profiled.
 *
 * A POSIX timer on CLOCK_MONOTONIC sends SIGPROF every 100 us, and the
 * handler appends the interrupted program counter (read from the
 * signal's ucontext) to a fixed buffer. At exit the sampler writes the
 * PCs, one hex address per line, to pc_sampler.pcs and a copy of
 * /proc/self/maps to pc_sampler.maps, both in the working directory;
 * profile.sh folds them through addr2line into self-time tables.
 *
 * Build: c++ -O2 -shared -fPIC -o pc_sampler.so tools/pc_sampler.cc -lrt
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <ucontext.h>

namespace
{

constexpr long kPeriodNs = 100'000;
/** 2^21 samples: ~210 s of run at one sample per 100 us (16 MiB of
 *  address space, touched only as samples arrive). */
constexpr std::size_t kMaxSamples = std::size_t(1) << 21;

std::uintptr_t samples[kMaxSamples];
std::atomic<std::size_t> taken{0};
std::atomic<std::size_t> dropped{0};
timer_t timer;
bool armed = false;

void
onSample(int, siginfo_t *, void *ctx)
{
    const auto *uc = static_cast<const ucontext_t *>(ctx);
#if defined(__x86_64__)
    const auto pc =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pc_sampler: no program-counter accessor for this architecture"
#endif
    const std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] = pc;
    else
        dropped.fetch_add(1, std::memory_order_relaxed);
}

__attribute__((constructor)) void
start()
{
    struct sigaction sa = {};
    sa.sa_sigaction = onSample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
        std::perror("pc_sampler: sigaction");
        return;
    }
    struct sigevent ev = {};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) {
        std::perror("pc_sampler: timer_create");
        return;
    }
    struct itimerspec period = {};
    period.it_interval.tv_nsec = kPeriodNs;
    period.it_value.tv_nsec = kPeriodNs;
    if (timer_settime(timer, 0, &period, nullptr) != 0) {
        std::perror("pc_sampler: timer_settime");
        return;
    }
    armed = true;
}

__attribute__((destructor)) void
stop()
{
    if (!armed)
        return;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    armed = false;

    const std::size_t n = std::min(taken.load(), kMaxSamples);
    if (std::FILE *out = std::fopen("pc_sampler.pcs", "w")) {
        for (std::size_t i = 0; i < n; ++i)
            std::fprintf(out, "%zx\n",
                         static_cast<std::size_t>(samples[i]));
        std::fclose(out);
    }
    if (std::FILE *in = std::fopen("/proc/self/maps", "r")) {
        if (std::FILE *out = std::fopen("pc_sampler.maps", "w")) {
            char buf[4096];
            std::size_t got;
            while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0)
                std::fwrite(buf, 1, got, out);
            std::fclose(out);
        }
        std::fclose(in);
    }
    if (dropped.load() != 0)
        std::fprintf(stderr,
                     "pc_sampler: buffer full, %zu samples dropped\n",
                     dropped.load());
}

} // namespace
