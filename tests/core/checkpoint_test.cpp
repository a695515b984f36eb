#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/binio.hpp"

namespace cichar::core {
namespace {

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
    const std::string payload = "hunt state \0 with embedded nul";
    const std::string blob = encode_checkpoint("hunt:dvt:seed=7", payload);
    std::string out;
    ASSERT_TRUE(decode_checkpoint(blob, "hunt:dvt:seed=7", out));
    EXPECT_EQ(out, payload);
}

TEST(CheckpointTest, RejectsWrongFingerprint) {
    const std::string blob = encode_checkpoint("hunt:dvt:seed=7", "payload");
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(blob, "hunt:dvt:seed=8", out));
    EXPECT_EQ(out, "untouched");
}

TEST(CheckpointTest, FileRoundTripAndMissingFile) {
    const std::string path = "checkpoint_test_roundtrip.ckpt";
    ASSERT_TRUE(write_checkpoint_file(path, "fp", "payload"));
    const auto loaded = read_checkpoint_file(path, "fp");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, "payload");
    EXPECT_FALSE(read_checkpoint_file(path, "other-fp").has_value());
    std::remove(path.c_str());
    EXPECT_FALSE(read_checkpoint_file(path, "fp").has_value());
}

// A version-1 envelope is refused by its magic alone — the rest of this
// one is intact — so a pre-CICHKPT2 checkpoint never parses as a
// current payload.
TEST(CheckpointTest, RejectsVersionOneEnvelope) {
    std::string blob = encode_checkpoint("fp", "payload");
    blob.replace(0, kCheckpointMagic.size(), "CICHKPT1");
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(blob, "fp", out));
    EXPECT_EQ(out, "untouched");

    const std::string path =
        ::testing::TempDir() + "checkpoint_test_version_one.ckpt";
    ASSERT_TRUE(util::atomic_write_file(path, blob));
    EXPECT_FALSE(read_checkpoint_file(path, "fp").has_value());
    std::remove(path.c_str());
}

// A CICHKPT2 checkpoint (FNV-1a seal, full cache records) is refused
// like a corrupt one: by its magic, and by its seal with the magic
// forged.
TEST(CheckpointTest, RejectsVersionTwoEnvelope) {
    std::string body;
    util::put_string(body, "fp");
    util::put_u64(body, 7);
    body.append("payload");
    std::string v2 = "CICHKPT2" + body;
    util::put_u64(v2, util::checksum64("payload"));
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(v2, "fp", out));
    std::string forged = v2;
    forged.replace(0, kCheckpointMagic.size(), kCheckpointMagic);
    EXPECT_FALSE(decode_checkpoint(forged, "fp", out));
    EXPECT_EQ(out, "untouched");

    const std::string path =
        ::testing::TempDir() + "checkpoint_test_version_two.ckpt";
    ASSERT_TRUE(util::atomic_write_file(path, v2));
    EXPECT_FALSE(read_checkpoint_file(path, "fp").has_value());
    std::remove(path.c_str());
}

// A CICHKPT3 checkpoint has today's envelope around a hunt payload with
// a reserved u64 and no residual memory: it is refused at its magic, so
// hunt and lot --resume fail as for a corrupt checkpoint.
TEST(CheckpointTest, RejectsVersionThreeEnvelope) {
    std::string blob = encode_checkpoint("fp", "payload");
    blob.replace(0, kCheckpointMagic.size(), "CICHKPT3");
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(blob, "fp", out));
    EXPECT_EQ(out, "untouched");

    const std::string path =
        ::testing::TempDir() + "checkpoint_test_version_three.ckpt";
    ASSERT_TRUE(util::atomic_write_file(path, blob));
    EXPECT_FALSE(read_checkpoint_file(path, "fp").has_value());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace cichar::core
