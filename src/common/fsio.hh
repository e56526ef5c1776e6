/**
 * @file
 * Durable filesystem primitives for the experiment service.
 *
 * Thin wrappers over POSIX I/O providing the guarantees the
 * `dapsim.expq.v1` store and the shared warm-up cache are built on:
 *
 *  - atomicWriteFile(): write-to-temp + fsync + rename(2), so readers
 *    never observe a half-written file no matter when the writer dies.
 *  - AppendFile: O_APPEND writes with an explicit fsync per record,
 *    so a crash can tear at most the final record of a ledger.
 *  - createExclusive(): O_CREAT|O_EXCL lock-file creation, the atomic
 *    take-it-or-lose primitive behind job leases and warmup locks.
 *  - ownerRecord() and reapIfStale(): the one owner-file protocol of
 *    those leases and locks — who holds one, and when it is dead.
 *
 * Everything throws std::runtime_error on failure (never fatal()), so
 * an I/O error inside a worker fails one operation, not the process.
 */

#ifndef DAPSIM_COMMON_FSIO_HH
#define DAPSIM_COMMON_FSIO_HH

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/json_reader.hh"
#include "common/json_writer.hh"

namespace dapsim::fsio
{

inline std::runtime_error
errnoError(const std::string &what, const std::string &path)
{
    return std::runtime_error(what + " " + path + ": " +
                              std::strerror(errno));
}

/** write(2) the whole span, retrying short writes and EINTR. */
inline void
writeAll(int fd, const void *data, std::size_t n, const std::string &path)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw errnoError("fsio: write failed:", path);
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
}

/**
 * Atomically replace @p path with @p data: write a uniquely named
 * temp file next to it, fsync it, rename(2) it into place. The temp
 * name must be unique per CALL, not just per process — two threads of
 * one process publishing the same path concurrently would otherwise
 * truncate each other's temp file and rename half-written bytes into
 * place. Concurrent writers therefore race benignly (last rename
 * wins; every observable file is complete), and a crash leaves at
 * worst an orphaned temp file.
 */
inline void
atomicWriteFile(const std::string &path, const void *data, std::size_t n)
{
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(counter.fetch_add(1));
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw errnoError("fsio: cannot create", tmp);
    try {
        writeAll(fd, data, n, tmp);
        if (::fsync(fd) != 0)
            throw errnoError("fsio: fsync failed:", tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        ::unlink(tmp.c_str());
        errno = saved;
        throw errnoError("fsio: rename failed:", path);
    }
}

inline void
atomicWriteFile(const std::string &path, const std::string &data)
{
    atomicWriteFile(path, data.data(), data.size());
}

/**
 * Create @p path with O_CREAT|O_EXCL and write @p content — the
 * atomic "exactly one winner" primitive. Returns false when the file
 * already exists; throws on any other failure.
 */
inline bool
createExclusive(const std::string &path, const std::string &content)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        if (errno == EEXIST)
            return false;
        throw errnoError("fsio: cannot create", path);
    }
    try {
        writeAll(fd, content.data(), content.size(), path);
        if (::fsync(fd) != 0)
            throw errnoError("fsio: fsync failed:", path);
    } catch (...) {
        ::close(fd);
        ::unlink(path.c_str());
        throw;
    }
    ::close(fd);
    return true;
}

/** Bump @p path's mtime to now (lease/lock heartbeat). */
inline bool
touchFile(const std::string &path)
{
    return ::utimes(path.c_str(), nullptr) == 0;
}

/** Seconds since @p path's mtime; negative when the file is gone. */
inline double
fileAgeSeconds(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    struct timeval now;
    ::gettimeofday(&now, nullptr);
    return static_cast<double>(now.tv_sec - st.st_mtime);
}

inline bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** This machine's name: an owner record that carries it names a pid
 *  whose liveness can be checked here. */
inline std::string
hostName()
{
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown-host";
    return buf;
}

/** {"pid":N,"host":"..."}: this process as the owner of a lock or
 *  lease file (what createExclusive writes into it). */
inline std::string
ownerRecord()
{
    json::JsonWriter w;
    w.beginObject();
    w.key("pid").value(static_cast<std::uint64_t>(::getpid()));
    w.key("host").value(hostName());
    w.endObject();
    return w.str();
}

/**
 * Remove the owner file at @p path if it is stale, and say whether it
 * was. It is stale at once when its owner is a dead pid on this host;
 * a foreign owner, or a record torn by an owner that died mid-write,
 * goes stale once the file's mtime (its heartbeat) is older than
 * @p ttl_sec. The file is renamed aside before the unlink, so exactly
 * one of several racing reapers removes it.
 */
inline bool
reapIfStale(const std::string &path, double ttl_sec)
{
    bool stale = false;
    try {
        std::ifstream in(path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (in && !text.empty()) {
            const json::Value v = json::parse(text);
            if (v.at("host").asString() == hostName()) {
                const pid_t pid = static_cast<pid_t>(v.at("pid").asU64());
                stale = ::kill(pid, 0) != 0 && errno == ESRCH;
            }
        }
    } catch (const std::exception &) {
        // Unreadable or torn record: age decides.
    }
    if (!stale)
        stale = fileAgeSeconds(path) > ttl_sec;
    if (stale) {
        const std::string reaped =
            path + ".reaped." + std::to_string(::getpid());
        if (::rename(path.c_str(), reaped.c_str()) == 0)
            ::unlink(reaped.c_str());
    }
    return stale;
}

/**
 * Append-only ledger file: every append() is one write(2) into an
 * O_APPEND descriptor followed by fsync, so records from concurrent
 * writers never interleave mid-record and a SIGKILL tears at most the
 * final record (which the reader detects and drops).
 */
class AppendFile
{
  public:
    explicit AppendFile(std::string path) : path_(std::move(path))
    {
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                     0644);
        if (fd_ < 0)
            throw errnoError("fsio: cannot open for append", path_);
    }

    ~AppendFile()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    AppendFile(const AppendFile &) = delete;
    AppendFile &operator=(const AppendFile &) = delete;

    void
    append(const std::string &record)
    {
        writeAll(fd_, record.data(), record.size(), path_);
        if (::fsync(fd_) != 0)
            throw errnoError("fsio: fsync failed:", path_);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
};

} // namespace dapsim::fsio

#endif // DAPSIM_COMMON_FSIO_HH
