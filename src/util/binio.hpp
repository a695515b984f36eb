// Little-endian binary serialization helpers shared by every on-disk
// artifact (trip cache, hunt/lot checkpoints, status feed, ledger).
// Writers append to a byte buffer; readers walk a cursor and throw on
// truncation, so a corrupt file surfaces as one catchable error instead
// of silently loading garbage. put_sealed()/get_sealed() are the one
// checksummed frame every format uses (docs/FORMATS.md, "Binary
// envelope"). atomic_write_file() gives crash-safe persistence: a killed
// process can leave a stale temp file behind, never a torn target.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace cichar::util {

/// Hard ceiling for serialized strings; anything longer in a file is
/// treated as corruption, not data.
inline constexpr std::uint64_t kMaxSerializedString = 1ULL << 20;

void put_u32(std::string& out, std::uint32_t value);
void put_u64(std::string& out, std::uint64_t value);
void put_double(std::string& out, double value);
void put_bool(std::string& out, bool value);
/// u64 length prefix + raw bytes.
void put_string(std::string& out, std::string_view value);
/// Serializes the full generator state (stream position + normal spare).
void put_rng(std::string& out, const Rng& rng);
/// Appends `bytes` followed by their checksum64 (a sealed frame).
void put_sealed(std::string& out, std::string_view bytes);

/// Cursor over a serialized byte buffer. Every get_* throws
/// std::runtime_error when the buffer is too short or a value is
/// malformed, so callers can wrap a whole parse in one try block.
class ByteReader {
public:
    explicit ByteReader(std::string_view data) noexcept : data_(data) {}

    [[nodiscard]] std::uint32_t get_u32();
    [[nodiscard]] std::uint64_t get_u64();
    [[nodiscard]] double get_double();
    [[nodiscard]] bool get_bool();
    [[nodiscard]] std::string get_string(
        std::uint64_t max_length = kMaxSerializedString);
    [[nodiscard]] Rng get_rng();

    /// Consumes `magic`; throws when the next bytes differ.
    void expect_magic(std::string_view magic);
    /// Reads a u64 element count and throws unless the remaining bytes
    /// can hold that many elements of at least `min_element_bytes` each,
    /// so no count read from a file can drive an allocation larger than
    /// the file itself.
    [[nodiscard]] std::size_t get_count(std::size_t min_element_bytes);
    /// Consumes a sealed frame of `size` bytes (put_sealed) and returns
    /// its bytes; throws on truncation or a checksum mismatch.
    [[nodiscard]] std::string_view get_sealed(std::uint64_t size);
    /// get_sealed() over everything left: the input must end exactly
    /// with the frame's checksum.
    [[nodiscard]] std::string_view get_sealed_rest();

    /// Skips `count` raw bytes (throws past the end).
    void skip(std::size_t count);

    [[nodiscard]] std::size_t position() const noexcept { return pos_; }
    [[nodiscard]] std::size_t remaining() const noexcept {
        return data_.size() - pos_;
    }
    [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

private:
    const unsigned char* take(std::size_t count);

    std::string_view data_;
    std::size_t pos_ = 0;
};

/// 64-bit FNV-1a over the bytes. Detects truncation and bit flips in
/// persisted blobs; not cryptographic.
[[nodiscard]] std::uint64_t checksum64(std::string_view data) noexcept;

// ---------------------------------------------------------------------
// Write-fault injection. Durability code (atomic_write_file, the store
// ledger's segment appends) applies the armed fault right before the
// bytes hit the file — copying the payload only when a fault matches the
// path — so tests and the chaos harness can deterministically produce
// exactly the torn or bit-flipped file a power cut mid-write would have
// left. Configured programmatically (unit tests) or via the environment
// (CLI chaos runs):
//
//   CICHAR_BINIO_FAULT="substr=ledg,torn=12"    first write to a path
//                                               containing "ledg" keeps
//                                               only its first 12 bytes
//   CICHAR_BINIO_FAULT="substr=ckpt,flip=7"     XOR 0x01 into byte 7
//
// Each injection fires once, then disarms — the recovery pass that
// follows must see clean hardware.

struct WriteFault {
    std::string path_substring;  ///< applies to paths containing this
    /// Keep only the first N bytes of the write (SIZE_MAX = no tear).
    std::size_t torn_after = static_cast<std::size_t>(-1);
    /// XOR `flip_mask` into this byte offset (npos = no flip).
    std::size_t flip_offset = static_cast<std::size_t>(-1);
    unsigned char flip_mask = 0x01;
};

/// Arms (or, with nullopt, clears) the one-shot write fault. Overrides
/// CICHAR_BINIO_FAULT.
void set_write_fault(const std::optional<WriteFault>& fault);

/// Mutates `data` per the armed fault when `path` matches, returning the
/// byte count to actually write (== data.size() unless torn). Fires at
/// most once per arming. The file writers below apply the same fault.
[[nodiscard]] std::size_t apply_write_faults(std::string_view path,
                                             std::string& data);

/// Writes `contents` to `path` via a temp file in the same directory and
/// an atomic rename. The temp file is fsync'd before the rename and the
/// parent directory after it, so a power cut at any instant leaves
/// either the complete old file or the complete new one — never an
/// empty, torn, or un-named file. Returns false (leaving any previous
/// file intact) if any step fails.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     std::string_view contents);

/// Appends `contents` to `path` (creating it if needed) with optional
/// fsync; the append-only store segments go through here so the write
/// shares the fault-injection hooks. Returns false on any failure.
[[nodiscard]] bool append_file(const std::string& path,
                               std::string_view contents, bool sync);

/// fsyncs the directory containing `path` so a freshly created or
/// renamed name survives a power cut. Returns success.
[[nodiscard]] bool sync_parent_dir(const std::string& path);

/// Reads a whole file; nullopt when missing or unreadable.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace cichar::util
