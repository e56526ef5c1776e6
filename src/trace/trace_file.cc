#include "trace/trace_file.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace dapsim
{

namespace
{

/** "line N: " prefix for parse diagnostics (empty when unknown). */
std::string
lineRef(std::size_t line_no)
{
    return line_no ? "line " + std::to_string(line_no) + ": " : "";
}

} // namespace

bool
TraceFileGenerator::parseLine(const std::string &line, TraceRequest &out,
                              std::size_t line_no)
{
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                  line[i])))
        ++i;
    if (i == line.size() || line[i] == '#')
        return false;

    std::istringstream is(line);
    std::uint64_t gap = 0;
    std::string kind;
    std::string addr;
    if (!(is >> gap >> kind >> addr))
        fatal("trace: malformed record: " + lineRef(line_no) + line);
    if (kind != "r" && kind != "w")
        fatal("trace: access kind must be 'r' or 'w': " +
              lineRef(line_no) + line);
    out.instrGap = gap == 0 ? 1 : gap;
    out.isWrite = kind == "w";
    // strtoull silently wraps out-of-range and negative values; a trace
    // address that does not fit the 64-bit space is a recording bug the
    // user needs to hear about, not an aliased access.
    if (addr[0] == '-')
        fatal("trace: negative address: " + lineRef(line_no) + line);
    errno = 0;
    char *end = nullptr;
    out.addr = std::strtoull(addr.c_str(), &end, 16);
    if (end == addr.c_str() || *end != '\0')
        fatal("trace: bad hex address: " + lineRef(line_no) + line);
    if (errno == ERANGE)
        fatal("trace: address overflows the 64-bit address space: " +
              lineRef(line_no) + line);
    return true;
}

TraceFileGenerator::TraceFileGenerator(const std::string &path, Addr base)
    : base_(base)
{
    std::ifstream in(path);
    if (!in)
        fatal("trace: cannot open " + path);
    std::string line;
    TraceRequest r;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (parseLine(line, r, line_no))
            records_.push_back(r);
    }
    if (records_.empty())
        fatal("trace: no records in " + path);
}

TraceFileGenerator::TraceFileGenerator(std::vector<TraceRequest> records,
                                       Addr base)
    : records_(std::move(records)), base_(base)
{
    if (records_.empty())
        fatal("trace: no records supplied");
}

bool
TraceFileGenerator::next(TraceRequest &out)
{
    out = records_[pos_];
    out.addr += base_;
    if (++pos_ == records_.size()) {
        pos_ = 0;
        ++loops_;
    }
    return true;
}

std::uint64_t
writeTraceFile(const std::string &path, AccessGenerator &gen,
               std::uint64_t max_records)
{
    std::ofstream out(path);
    out << "# dapsim trace: <instr_gap> <r|w> <hex_address>\n";
    std::uint64_t n = 0;
    for (TraceRequest r; n < max_records && out && gen.next(r); ++n)
        out << r.instrGap << ' ' << (r.isWrite ? 'w' : 'r') << ' '
            << std::hex << "0x" << r.addr << std::dec << '\n';
    if (!out.flush())
        fatal("trace: cannot write " + path);
    return n;
}

} // namespace dapsim
