/**
 * @file
 * ckpt::crc32 (slicing-by-8) against the bytewise table loop it
 * replaced, kept here as the reference: equal values at every length
 * and alignment, the standard check value, and records sealed with the
 * old loop still verifying.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/rng.hh"
#include "expd/ledger.hh"

namespace dapsim
{
namespace
{

/** The bytewise CRC32 (IEEE 802.3, reflected) checkpoints and ledgers
 *  were sealed with before the sliced loop. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t n)
{
    static const auto table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint32_t
crcOf(const std::string &s)
{
    return ckpt::crc32(reinterpret_cast<const std::uint8_t *>(s.data()),
                       s.size());
}

TEST(Crc32, CheckValue)
{
    EXPECT_EQ(crcOf("123456789"), 0xcbf43926u);
    EXPECT_EQ(crcOf(""), 0u);
    EXPECT_EQ(crcOf("The quick brown fox jumps over the lazy dog"),
              0x414fa339u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // 8 spare bytes so every start offset 0-7 can take 4096 bytes.
    constexpr std::size_t kMaxLen = 4096;
    std::vector<std::uint8_t> buf(kMaxLen + 8);
    Rng rng(0x5eed);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());

    for (std::size_t align = 0; align < 8; ++align) {
        const std::uint8_t *p = buf.data() + align;
        // Every length up to 64 (all tail sizes around the 8-byte
        // stride), the edges, and random lengths up to 4096.
        std::vector<std::size_t> lens;
        for (std::size_t n = 0; n <= 64; ++n)
            lens.push_back(n);
        lens.push_back(kMaxLen - 1);
        lens.push_back(kMaxLen);
        for (int k = 0; k < 200; ++k)
            lens.push_back(static_cast<std::size_t>(rng.below(kMaxLen + 1)));
        for (std::size_t n : lens)
            ASSERT_EQ(ckpt::crc32(p, n), referenceCrc32(p, n))
                << "align " << align << " length " << n;
    }
}

TEST(Crc32, RecordsSealedBeforeStillVerify)
{
    // A ledger line sealed by the bytewise loop (CRC from zlib's
    // crc32, the same function).
    const std::string payload =
        "{\"event\":\"done\",\"job\":3,\"row\":{\"ipc\":[1.25,0.5]}}";
    const std::string line =
        "{\"event\":\"done\",\"job\":3,\"row\":{\"ipc\":[1.25,0.5]},"
        "\"crc\":\"30c82b10\"}";
    EXPECT_EQ(expd::sealRecord(payload), line + "\n");
    EXPECT_EQ(expd::parseRecord(line).at("job").asU64(), 3u);
}

} // namespace
} // namespace dapsim
