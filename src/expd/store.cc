#include "expd/store.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fsio.hh"

namespace dapsim::expd
{

namespace
{

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
        throw fsio::errnoError("expq: cannot create directory", path);
}

/** The event ledger files under @p dir, sorted for reproducibility. */
std::vector<std::string>
listEventFiles(const std::string &dir)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return out;
    while (const dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.rfind("events-", 0) == 0 &&
            name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0)
            out.push_back(dir + "/" + name);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

std::size_t
Replay::countState(JobState::State s) const
{
    std::size_t n = 0;
    for (const JobState &j : jobs)
        n += j.state == s ? 1 : 0;
    return n;
}

Store
Store::create(const std::string &dir, const GridOptions &opt)
{
    Store store;
    store.dir_ = dir;
    store.options_ = opt;
    store.jobs_ = expandGrid(opt);
    if (store.jobs_.empty())
        throw StoreError("expq: grid expands to zero jobs");

    makeDir(dir);
    const std::string manifest = dir + "/grid.jsonl";
    if (fsio::fileExists(manifest))
        throw StoreError("expq: store already exists: " + manifest);
    makeDir(store.eventsDir());
    makeDir(dir + "/leases");
    makeDir(store.ckptDir());
    makeDir(dir + "/stderr");

    std::string text = gridRecord(opt, store.jobs_.size());
    for (std::size_t i = 0; i < store.jobs_.size(); ++i)
        text += jobRecord(store.jobs_[i], i);
    fsio::atomicWriteFile(manifest, text);
    return store;
}

Store
Store::open(const std::string &dir)
{
    const std::string manifest = dir + "/grid.jsonl";
    std::ifstream in(manifest, std::ios::binary);
    if (!in)
        throw StoreError("expq: no store at " + dir +
                         " (missing grid.jsonl)");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const LedgerContents manifest_records =
        readLedgerText(text, manifest);
    // The manifest is written atomically: a torn tail means the file
    // was tampered with, not crashed on.
    if (manifest_records.droppedTornTail ||
        manifest_records.records.empty())
        throw StoreError("expq: corrupt manifest: " + manifest);

    const json::Value &head = manifest_records.records.front();
    if (head.at("schema").asString() != kSchemaId ||
        head.at("type").asString() != "grid")
        throw StoreError("expq: " + manifest +
                         " is not a dapsim.expq.v1 manifest");

    Store store;
    store.dir_ = dir;
    store.options_ = decodeGridOptions(head.at("options"));
    store.jobs_ = expandGrid(store.options_);

    const std::size_t n = head.at("jobs").asU64();
    if (n != store.jobs_.size() ||
        manifest_records.records.size() != n + 1)
        throw StoreError(
            "expq: manifest job count disagrees with re-expansion "
            "(different build or profile tables?)");
    for (std::size_t i = 0; i < n; ++i) {
        const json::Value &rec = manifest_records.records[i + 1];
        if (rec.at("type").asString() != "job" ||
            rec.at("index").asU64() != i)
            throw StoreError("expq: manifest job records out of order");
        if (rec.at("id").asString() != store.jobs_[i].id)
            throw StoreError(
                "expq: job " + std::to_string(i) +
                " re-expands to id " + store.jobs_[i].id +
                " but the manifest recorded " +
                rec.at("id").asString() +
                " — refusing to run a drifted grid");
    }
    return store;
}

std::string
Store::eventsPath(const std::string &writer) const
{
    return eventsDir() + "/events-" + writer + ".jsonl";
}

std::string
Store::leasePath(std::size_t index) const
{
    return dir_ + "/leases/job-" + std::to_string(index) + ".lease";
}

std::string
Store::stderrPath(std::size_t index) const
{
    return dir_ + "/stderr/job-" + std::to_string(index) + ".txt";
}

Replay
Store::replay() const
{
    Replay out;
    out.jobs.assign(jobs_.size(), JobState{});

    for (const std::string &path : listEventFiles(eventsDir())) {
        const LedgerContents ledger = readLedgerFile(path);
        out.droppedTornTail |= ledger.droppedTornTail;
        for (const json::Value &rec : ledger.records) {
            const std::string type = rec.at("type").asString();
            if (type == "warmup") {
                if (rec.at("executed").asBool())
                    ++out.warmupsExecuted[rec.at("group").asString()];
                continue;
            }
            const std::size_t i = rec.at("index").asU64();
            if (i >= out.jobs.size())
                throw StoreError(path + ": event for job " +
                                 std::to_string(i) +
                                 " beyond the manifest");
            JobState &job = out.jobs[i];
            if (type == "start") {
                job.started = true;
            } else if (type == "done") {
                // Racing workers write identical rows (determinism
                // contract); the first replayed one wins.
                if (job.state != JobState::State::Done) {
                    job.state = JobState::State::Done;
                    job.row = rec.at("row").asString();
                    job.worker = rec.at("worker").asString();
                    job.error.clear();
                    const json::Value *t = rec.find("t");
                    job.doneAt = t ? t->asDouble() : 0.0;
                }
            } else if (type == "failed") {
                ++job.failures;
                if (job.state != JobState::State::Done) {
                    job.error = rec.at("error").asString();
                    job.worker = rec.at("worker").asString();
                    job.row = rec.at("row").asString();
                }
            } else if (type == "retry") {
                ++job.retries;
            } else {
                throw StoreError(path + ": unknown record type '" +
                                 type + "'");
            }
        }
    }

    for (JobState &job : out.jobs) {
        if (job.state == JobState::State::Done)
            continue;
        job.state = job.failures > job.retries
                        ? JobState::State::Failed
                        : JobState::State::Pending;
    }
    for (const JobState &job : out.jobs) {
        if (job.state != JobState::State::Done)
            continue;
        ++out.doneByWorker[job.worker];
        if (out.firstDoneAt == 0.0 || job.doneAt < out.firstDoneAt)
            out.firstDoneAt = job.doneAt;
        out.lastDoneAt = std::max(out.lastDoneAt, job.doneAt);
    }
    return out;
}

bool
Store::tryLease(std::size_t index, double ttl_sec) const
{
    const std::string path = leasePath(index);

    // Reap a stale lease first (the rename makes exactly one racing
    // reaper win), then take it.
    fsio::reapIfStale(path, ttl_sec);
    return fsio::createExclusive(path, fsio::ownerRecord());
}

void
Store::heartbeat(std::size_t index) const
{
    fsio::touchFile(leasePath(index));
}

void
Store::releaseLease(std::size_t index) const
{
    ::unlink(leasePath(index).c_str());
}

bool
Store::leased(std::size_t index) const
{
    return fsio::fileExists(leasePath(index));
}

void
Store::verifyRow(std::size_t index, const std::string &row) const
{
    json::Value v;
    try {
        v = json::parse(row);
    } catch (const std::exception &e) {
        throw StoreError("expq: job " + std::to_string(index) +
                         " result row is not valid JSON: " + e.what());
    }
    if (v.at("schema").asString() != "dapsim.sweep.v1")
        throw StoreError("expq: job " + std::to_string(index) +
                         " result row has a foreign schema");
    if (v.at("job").asU64() != index ||
        v.at("job_id").asString() != jobs_[index].id)
        throw StoreError("expq: job " + std::to_string(index) +
                         " result row names a different job");
}

std::vector<std::string>
Store::mergedRows(const Replay &replay) const
{
    std::vector<std::string> rows;
    rows.reserve(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const JobState &job = replay.jobs[i];
        if (job.state == JobState::State::Pending || job.row.empty())
            throw StoreError("expq: job " + std::to_string(i) +
                             " has no result yet — run more workers "
                             "or `dapsim_expd resume` first");
        verifyRow(i, job.row);
        rows.push_back(job.row);
    }
    return rows;
}

} // namespace dapsim::expd
