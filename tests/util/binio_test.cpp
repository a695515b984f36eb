#include "util/binio.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace cichar::util {
namespace {

TEST(BinioTest, ScalarRoundTrip) {
    std::string buffer;
    put_u32(buffer, 0xDEADBEEFu);
    put_u64(buffer, 0x0123456789ABCDEFULL);
    put_double(buffer, -1.5e-9);
    put_bool(buffer, true);
    put_bool(buffer, false);
    put_string(buffer, "trip-cache");

    ByteReader reader(buffer);
    EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFULL);
    EXPECT_DOUBLE_EQ(reader.get_double(), -1.5e-9);
    EXPECT_TRUE(reader.get_bool());
    EXPECT_FALSE(reader.get_bool());
    EXPECT_EQ(reader.get_string(), "trip-cache");
    EXPECT_TRUE(reader.at_end());
}

TEST(BinioTest, LittleEndianLayout) {
    std::string buffer;
    put_u32(buffer, 0x04030201u);
    ASSERT_EQ(buffer.size(), 4u);
    EXPECT_EQ(buffer[0], '\x01');
    EXPECT_EQ(buffer[3], '\x04');
}

TEST(BinioTest, DoublePreservesNanAndInfinity) {
    std::string buffer;
    put_double(buffer, std::numeric_limits<double>::quiet_NaN());
    put_double(buffer, std::numeric_limits<double>::infinity());
    ByteReader reader(buffer);
    EXPECT_TRUE(std::isnan(reader.get_double()));
    EXPECT_EQ(reader.get_double(), std::numeric_limits<double>::infinity());
}

// Words written and read back at odd buffer offsets keep their exact
// bit patterns (NaN payloads and infinities included): the word codec
// assumes no alignment.
TEST(BinioTest, WordsRoundTripAtOddOffsets) {
    const double inf = std::numeric_limits<double>::infinity();
    const std::uint64_t nan_bits = 0x7ff8dead0000beefULL;
    const std::uint64_t negative_nan_bits = 0xfff8000000000001ULL;
    std::string out(1, 'x');
    put_u32(out, 0xdeadbeefU);                                // offset 1
    put_u64(out, 0x0123456789abcdefULL);                      // offset 5
    put_double(out, std::bit_cast<double>(nan_bits));         // offset 13
    put_double(out, inf);                                     // offset 21
    put_double(out, -inf);                                    // offset 29
    put_double(out, std::bit_cast<double>(negative_nan_bits));  // 37
    ASSERT_EQ(out.size(), 45u);
    EXPECT_EQ(out.substr(1, 4), "\xef\xbe\xad\xde");

    ByteReader in(out);
    in.skip(1);
    EXPECT_EQ(in.get_u32(), 0xdeadbeefU);
    EXPECT_EQ(in.get_u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.get_double()), nan_bits);
    EXPECT_EQ(in.get_double(), inf);
    EXPECT_EQ(in.get_double(), -inf);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.get_double()),
              negative_nan_bits);
    EXPECT_TRUE(in.at_end());
}

TEST(BinioTest, TruncatedReadThrows) {
    std::string buffer;
    put_u64(buffer, 7);
    buffer.resize(5);
    ByteReader reader(buffer);
    EXPECT_THROW((void)reader.get_u64(), std::runtime_error);
}

TEST(BinioTest, OversizedStringLengthThrows) {
    std::string buffer;
    put_u64(buffer, kMaxSerializedString + 1);  // bogus length prefix
    ByteReader reader(buffer);
    EXPECT_THROW((void)reader.get_string(), std::runtime_error);
}

TEST(BinioTest, MalformedBoolThrows) {
    const std::string buffer("\x07", 1);
    ByteReader reader(buffer);
    EXPECT_THROW((void)reader.get_bool(), std::runtime_error);
}

TEST(BinioTest, SkipPastEndThrows) {
    const std::string buffer("ab");
    ByteReader reader(buffer);
    reader.skip(2);
    EXPECT_TRUE(reader.at_end());
    EXPECT_THROW(reader.skip(1), std::runtime_error);
}

TEST(BinioTest, RngRoundTripReplaysStream) {
    Rng rng(2005);
    for (int i = 0; i < 11; ++i) (void)rng.normal();
    std::string buffer;
    put_rng(buffer, rng);

    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 32; ++i) expected.push_back(rng());

    ByteReader reader(buffer);
    Rng restored = reader.get_rng();
    for (const std::uint64_t value : expected) {
        ASSERT_EQ(restored(), value);
    }
}

TEST(BinioTest, ChecksumDetectsBitFlip) {
    std::string data = "CICHTPC2 payload bytes";
    const std::uint64_t clean = checksum64(data);
    data[7] = static_cast<char>(data[7] ^ 0x10);
    EXPECT_NE(checksum64(data), clean);
    EXPECT_NE(checksum64(std::string_view(data).substr(0, data.size() - 1)),
              clean);
}

// seal64 is xxHash64 with seed 0. The first three rows are published
// xxHash64 values; the other lengths pin one row per tail branch (bytes
// only, a 4-byte word, 8-byte words, the 32-byte stripe loop) with
// values taken from this implementation, over bytes (i * 131 + 7) mod
// 256.
TEST(BinioTest, Seal64KnownAnswers) {
    EXPECT_EQ(seal64(""), 0xEF46DB3751D8E999ULL);
    EXPECT_EQ(seal64("abc"), 0x44BC2CF5AD770999ULL);
    EXPECT_EQ(seal64("Nobody inspects the spammish repetition"),
              0xFBCEA83C8A378BF1ULL);
    const auto seal_of = [](std::size_t n) {
        std::string bytes(n, '\0');
        for (std::size_t i = 0; i < n; ++i) {
            bytes[i] = static_cast<char>((i * 131 + 7) & 0xFF);
        }
        return seal64(bytes);
    };
    EXPECT_EQ(seal_of(1), 0xA96C7F0CE858BBB7ULL);
    EXPECT_EQ(seal_of(3), 0xBED43740EE6332BBULL);
    EXPECT_EQ(seal_of(4), 0xFA212AE44B3BB23DULL);
    EXPECT_EQ(seal_of(7), 0x2744460DD675D2C0ULL);
    EXPECT_EQ(seal_of(8), 0x994B676B71CE94DDULL);
    EXPECT_EQ(seal_of(31), 0x6711D55E306B5D8FULL);
    EXPECT_EQ(seal_of(32), 0x07F7B8E3BC5D6E25ULL);
    EXPECT_EQ(seal_of(33), 0x09F85EEB4E1CBE9FULL);
    EXPECT_EQ(seal_of(411000), 0xFAADBEE4F9497DF6ULL);
}

// The seal reads its words little-endian from any alignment, and the
// frame carries seal64 (checksum64 stays the FNV-1a id hash).
TEST(BinioTest, SealIsAlignmentFreeAndDistinctFromChecksum) {
    std::string bytes(200, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<char>(i * 37 + 1);
    }
    const std::uint64_t aligned = seal64(std::string_view(bytes).substr(0, 99));
    std::string shifted = "x" + bytes;
    EXPECT_EQ(seal64(std::string_view(shifted).substr(1, 99)), aligned);
    EXPECT_NE(seal64(bytes), checksum64(bytes));
    EXPECT_EQ(checksum64(""), 0xCBF29CE484222325ULL);  // FNV-1a basis

    std::string frame;
    put_sealed(frame, bytes);
    ByteReader in(std::string_view(frame).substr(bytes.size()));
    EXPECT_EQ(in.get_u64(), seal64(bytes));
}

TEST(BinioTest, SealedFrameRoundTripAndChecks) {
    std::string buffer;
    put_sealed(buffer, "payload");
    ASSERT_EQ(buffer.size(), 7u + 8u);
    ByteReader sized(buffer);
    EXPECT_EQ(sized.get_sealed(7), "payload");
    EXPECT_TRUE(sized.at_end());
    ByteReader rest(buffer);
    EXPECT_EQ(rest.get_sealed_rest(), "payload");

    std::string flipped = buffer;
    flipped[2] = static_cast<char>(flipped[2] ^ 0x01);
    ByteReader corrupt(flipped);
    EXPECT_THROW((void)corrupt.get_sealed(7), std::runtime_error);
    ByteReader too_long(buffer);
    EXPECT_THROW((void)too_long.get_sealed(8), std::runtime_error);
    ByteReader too_short(std::string_view(buffer).substr(0, 7));
    EXPECT_THROW((void)too_short.get_sealed_rest(), std::runtime_error);
}

TEST(BinioTest, CountBeyondRemainingBytesThrows) {
    std::string buffer;
    put_u64(buffer, 3);
    buffer.append(24, '\0');
    ByteReader fits(buffer);
    EXPECT_EQ(fits.get_count(8), 3u);
    ByteReader too_many(buffer);
    EXPECT_THROW((void)too_many.get_count(9), std::runtime_error);

    std::string huge;
    put_u64(huge, 1ULL << 62);
    ByteReader absurd(huge);
    EXPECT_THROW((void)absurd.get_count(1), std::runtime_error);
}

TEST(BinioTest, ExpectMagicConsumesOrThrows) {
    ByteReader match("CICHKPT1rest");
    EXPECT_NO_THROW(match.expect_magic("CICHKPT1"));
    EXPECT_EQ(match.remaining(), 4u);
    ByteReader other("CICHKPT2rest");
    EXPECT_THROW(other.expect_magic("CICHKPT1"), std::runtime_error);
    ByteReader truncated("CICH");
    EXPECT_THROW(truncated.expect_magic("CICHKPT1"), std::runtime_error);
}

TEST(BinioTest, AtomicWriteCreatesAndReplaces) {
    const std::string path = ::testing::TempDir() + "binio_atomic_test.bin";
    ASSERT_TRUE(atomic_write_file(path, "first"));
    auto contents = read_file(path);
    ASSERT_TRUE(contents.has_value());
    EXPECT_EQ(*contents, "first");

    ASSERT_TRUE(atomic_write_file(path, "second, longer contents"));
    contents = read_file(path);
    ASSERT_TRUE(contents.has_value());
    EXPECT_EQ(*contents, "second, longer contents");
    std::remove(path.c_str());
}

TEST(BinioTest, AtomicWriteFailureLeavesTargetIntact) {
    const std::string dir = ::testing::TempDir() + "binio_no_such_dir_xyz";
    EXPECT_FALSE(atomic_write_file(dir + "/file.bin", "data"));
}

TEST(BinioTest, ReadFileMissingReturnsNullopt) {
    EXPECT_FALSE(
        read_file(::testing::TempDir() + "binio_missing_file_xyz").has_value());
}

TEST(BinioTest, AppendFileCreatesAndAppends) {
    const std::string path = ::testing::TempDir() + "binio_append_test.bin";
    std::remove(path.c_str());
    ASSERT_TRUE(append_file(path, "one,", true));
    ASSERT_TRUE(append_file(path, "two", false));
    EXPECT_EQ(read_file(path).value_or(""), "one,two");
    std::remove(path.c_str());
}

TEST(BinioTest, AppendFileFailsOnMissingDirectory) {
    EXPECT_FALSE(append_file(
        ::testing::TempDir() + "binio_no_dir_abc/file.bin", "data", false));
}

// ---------------------------------------------------------------------
// Write-fault injection (the chaos harness's torn-write / bit-rot
// simulator).

class WriteFaultTest : public testing::Test {
protected:
    void SetUp() override { set_write_fault(std::nullopt); }
    void TearDown() override { set_write_fault(std::nullopt); }
};

TEST_F(WriteFaultTest, UnarmedLeavesDataUntouched) {
    std::string data = "payload";
    EXPECT_EQ(apply_write_faults("/any/path", data), data.size());
    EXPECT_EQ(data, "payload");
}

TEST_F(WriteFaultTest, TornFaultTruncatesMatchingWriteOnce) {
    WriteFault fault;
    fault.path_substring = "target";
    fault.torn_after = 3;
    set_write_fault(fault);

    std::string other = "unrelated";
    EXPECT_EQ(apply_write_faults("/tmp/elsewhere", other), other.size());

    std::string data = "abcdefgh";
    EXPECT_EQ(apply_write_faults("/tmp/target.bin", data), 3u);
    EXPECT_EQ(data, "abcdefgh");  // torn at the write, not mutated

    // One-shot: the fault disarmed after firing.
    std::string again = "abcdefgh";
    EXPECT_EQ(apply_write_faults("/tmp/target.bin", again), again.size());
}

TEST_F(WriteFaultTest, FlipFaultXorsTheConfiguredByte) {
    WriteFault fault;
    fault.path_substring = "seg";
    fault.flip_offset = 2;
    fault.flip_mask = 0x01;
    set_write_fault(fault);

    std::string data = "abcd";
    EXPECT_EQ(apply_write_faults("dir/seg-000000.ledg", data), 4u);
    EXPECT_EQ(data, "ab" + std::string(1, 'c' ^ 0x01) + "d");
}

TEST_F(WriteFaultTest, FlipBeyondDataIsHarmless) {
    WriteFault fault;
    fault.path_substring = "x";
    fault.flip_offset = 100;
    set_write_fault(fault);
    std::string data = "ab";
    EXPECT_EQ(apply_write_faults("x", data), 2u);
    EXPECT_EQ(data, "ab");
}

TEST_F(WriteFaultTest, TornAtomicWriteReportsFailureAndKeepsOldFile) {
    const std::string path = ::testing::TempDir() + "binio_fault_atomic.bin";
    ASSERT_TRUE(atomic_write_file(path, "intact"));

    WriteFault fault;
    fault.path_substring = "binio_fault_atomic";
    fault.torn_after = 2;
    set_write_fault(fault);
    // The tear happens below atomic_write_file (it simulates hardware
    // dropping bytes it acknowledged), so the rename publishes exactly
    // the short file a lying disk would have left — the artifact the
    // recovery paths under test must then repair.
    ASSERT_TRUE(atomic_write_file(path, "replacement"));
    EXPECT_EQ(read_file(path).value_or(""), "re");
    std::remove(path.c_str());
}

TEST_F(WriteFaultTest, TornAppendReportsFailureButLeavesTornTail) {
    const std::string path = ::testing::TempDir() + "binio_fault_append.bin";
    std::remove(path.c_str());
    ASSERT_TRUE(append_file(path, "good", false));

    WriteFault fault;
    fault.path_substring = "binio_fault_append";
    fault.torn_after = 2;
    set_write_fault(fault);
    // A torn append is a failed append (the caller must know its batch
    // did not land), yet the torn bytes are on disk for recovery to find.
    EXPECT_FALSE(append_file(path, "batch", false));
    EXPECT_EQ(read_file(path).value_or(""), "goodba");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace cichar::util
