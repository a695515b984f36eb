#include "util/binio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/crash_point.hpp"

namespace cichar::util {
namespace {

/// Appends the low `sizeof(Word)` bytes of `value`, least significant
/// first. On a little-endian host that is the word's own memory, so it
/// goes out in one append.
template <typename Word>
void put_word(std::string& out, Word value) {
    char bytes[sizeof(Word)];
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &value, sizeof(Word));
    } else {
        for (std::size_t i = 0; i < sizeof(Word); ++i) {
            bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
        }
    }
    out.append(bytes, sizeof(Word));
}

/// Inverse of put_word over `sizeof(Word)` bytes at `b` (any alignment).
template <typename Word>
Word get_word(const unsigned char* b) {
    Word value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, b, sizeof(Word));
    } else {
        for (std::size_t i = 0; i < sizeof(Word); ++i) {
            value |= static_cast<Word>(b[i]) << (8 * i);
        }
    }
    return value;
}

}  // namespace

void put_u32(std::string& out, std::uint32_t value) {
    put_word(out, value);
}

void put_u64(std::string& out, std::uint64_t value) {
    put_word(out, value);
}

void put_double(std::string& out, double value) {
    put_word(out, std::bit_cast<std::uint64_t>(value));
}

void put_bool(std::string& out, bool value) {
    out.push_back(value ? '\x01' : '\x00');
}

void put_string(std::string& out, std::string_view value) {
    put_u64(out, value.size());
    out.append(value.data(), value.size());
}

void put_rng(std::string& out, const Rng& rng) {
    const Rng::State state = rng.state();
    for (const std::uint64_t word : state.words) put_u64(out, word);
    put_double(out, state.spare_normal);
    put_bool(out, state.has_spare);
}

void put_sealed(std::string& out, std::string_view bytes) {
    out.append(bytes);
    put_u64(out, checksum64(bytes));
}

const unsigned char* ByteReader::take(std::size_t count) {
    if (count > data_.size() - pos_) {
        throw std::runtime_error("binio: truncated input (need " +
                                 std::to_string(count) + " bytes at offset " +
                                 std::to_string(pos_) + ", have " +
                                 std::to_string(data_.size() - pos_) + ")");
    }
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += count;
    return bytes;
}

std::uint32_t ByteReader::get_u32() {
    return get_word<std::uint32_t>(take(4));
}

std::uint64_t ByteReader::get_u64() {
    return get_word<std::uint64_t>(take(8));
}

double ByteReader::get_double() {
    return std::bit_cast<double>(get_u64());
}

bool ByteReader::get_bool() {
    const unsigned char byte = *take(1);
    if (byte > 1) {
        throw std::runtime_error("binio: malformed bool value " +
                                 std::to_string(byte));
    }
    return byte != 0;
}

std::string ByteReader::get_string(std::uint64_t max_length) {
    const std::uint64_t length = get_u64();
    if (length > max_length) {
        throw std::runtime_error("binio: string length " +
                                 std::to_string(length) + " exceeds limit " +
                                 std::to_string(max_length));
    }
    const unsigned char* b = take(static_cast<std::size_t>(length));
    return std::string(reinterpret_cast<const char*>(b),
                       static_cast<std::size_t>(length));
}

Rng ByteReader::get_rng() {
    Rng::State state;
    for (std::uint64_t& word : state.words) word = get_u64();
    state.spare_normal = get_double();
    state.has_spare = get_bool();
    Rng rng;
    rng.restore(state);
    return rng;
}

void ByteReader::expect_magic(std::string_view magic) {
    const unsigned char* b = take(magic.size());
    if (std::string_view(reinterpret_cast<const char*>(b), magic.size()) !=
        magic) {
        throw std::runtime_error("binio: bad magic");
    }
}

std::size_t ByteReader::get_count(std::size_t min_element_bytes) {
    const std::uint64_t count = get_u64();
    if (count > remaining() / std::max<std::size_t>(min_element_bytes, 1)) {
        throw std::runtime_error("binio: count " + std::to_string(count) +
                                 " exceeds the " +
                                 std::to_string(remaining()) +
                                 " bytes left");
    }
    return static_cast<std::size_t>(count);
}

std::string_view ByteReader::get_sealed(std::uint64_t size) {
    if (size > remaining()) {
        throw std::runtime_error("binio: truncated sealed frame");
    }
    const auto n = static_cast<std::size_t>(size);
    const std::string_view bytes(reinterpret_cast<const char*>(take(n)), n);
    if (get_u64() != checksum64(bytes)) {
        throw std::runtime_error("binio: checksum mismatch");
    }
    return bytes;
}

std::string_view ByteReader::get_sealed_rest() {
    if (remaining() < 8) {
        throw std::runtime_error("binio: truncated sealed frame");
    }
    return get_sealed(remaining() - 8);
}

void ByteReader::skip(std::size_t count) {
    (void)take(count);
}

std::uint64_t checksum64(std::string_view data) noexcept {
    std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x00000100000001B3ULL;  // FNV-1a prime
    }
    return hash;
}

namespace {

/// One-shot write-fault state (see binio.hpp). Guarded by a mutex: the
/// writers that matter are cold paths (checkpoints, ledger commits).
struct FaultState {
    std::mutex mutex;
    std::optional<WriteFault> fault;
    bool env_loaded = false;
};

FaultState& fault_state() {
    static FaultState s;
    return s;
}

/// Parses CICHAR_BINIO_FAULT ("substr=S,torn=N,flip=OFF[,mask=M]");
/// malformed specs arm nothing.
std::optional<WriteFault> parse_fault_env(const char* spec) {
    WriteFault fault;
    bool any = false;
    std::istringstream in{std::string(spec)};
    std::string item;
    try {
        while (std::getline(in, item, ',')) {
            const std::size_t eq = item.find('=');
            if (eq == std::string::npos) return std::nullopt;
            const std::string key = item.substr(0, eq);
            const std::string value = item.substr(eq + 1);
            if (key == "substr") {
                fault.path_substring = value;
            } else if (key == "torn") {
                fault.torn_after = static_cast<std::size_t>(
                    std::stoull(value));
                any = true;
            } else if (key == "flip") {
                fault.flip_offset = static_cast<std::size_t>(
                    std::stoull(value));
                any = true;
            } else if (key == "mask") {
                fault.flip_mask = static_cast<unsigned char>(
                    std::stoull(value, nullptr, 0) & 0xFF);
            } else {
                return std::nullopt;
            }
        }
    } catch (const std::exception&) {
        return std::nullopt;
    }
    if (!any) return std::nullopt;
    return fault;
}

/// Full-buffer write with EINTR retry.
bool write_all(int fd, const char* data, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/// The armed fault when it applies to `path`, disarming it (one-shot:
/// recovery must see clean hardware); nullopt otherwise.
std::optional<WriteFault> take_write_fault(std::string_view path) {
    FaultState& s = fault_state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.env_loaded) {
        s.env_loaded = true;
        if (const char* spec = std::getenv("CICHAR_BINIO_FAULT")) {
            if (*spec != '\0') s.fault = parse_fault_env(spec);
        }
    }
    if (!s.fault || path.find(s.fault->path_substring) == std::string::npos) {
        return std::nullopt;
    }
    std::optional<WriteFault> fault = std::move(s.fault);
    s.fault.reset();
    return fault;
}

/// Flips the fault's byte in `data`; returns the byte count to write.
std::size_t apply_fault(const WriteFault& fault, std::string& data) {
    if (fault.flip_offset < data.size()) {
        data[fault.flip_offset] = static_cast<char>(
            static_cast<unsigned char>(data[fault.flip_offset]) ^
            fault.flip_mask);
    }
    return std::min(data.size(), fault.torn_after);
}

/// The bytes a write of `contents` to `path` puts on disk: `contents`
/// itself, or — only when an armed fault matches — its faulted copy in
/// `scratch`.
std::string_view faulted_bytes(std::string_view path,
                               std::string_view contents,
                               std::string& scratch) {
    const std::optional<WriteFault> fault = take_write_fault(path);
    if (!fault) return contents;
    scratch.assign(contents);
    return std::string_view(scratch).substr(0, apply_fault(*fault, scratch));
}

}  // namespace

void set_write_fault(const std::optional<WriteFault>& fault) {
    FaultState& s = fault_state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.fault = fault;
    s.env_loaded = true;  // programmatic arming wins over the environment
}

std::size_t apply_write_faults(std::string_view path, std::string& data) {
    const std::optional<WriteFault> fault = take_write_fault(path);
    return fault ? apply_fault(*fault, data) : data.size();
}

bool atomic_write_file(const std::string& path, std::string_view contents) {
    const std::string temp_path = path + ".tmp";
    std::string scratch;
    const std::string_view bytes = faulted_bytes(path, contents, scratch);
    {
        const int fd = ::open(temp_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (fd < 0) return false;
        CICHAR_CRASH_POINT("binio.atomic.pre_write");
        // fsync before the rename: otherwise the rename can become
        // durable while the data has not, and a power cut publishes an
        // empty or torn file under the final name.
        if (!write_all(fd, bytes.data(), bytes.size()) || ::fsync(fd) != 0) {
            ::close(fd);
            std::remove(temp_path.c_str());
            return false;
        }
        ::close(fd);
    }
    CICHAR_CRASH_POINT("binio.atomic.pre_rename");
    if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
        std::remove(temp_path.c_str());
        return false;
    }
    CICHAR_CRASH_POINT("binio.atomic.post_rename");
    // fsync the directory so the new name itself survives a power cut;
    // failure here is not fatal to the caller (the data is safely under
    // the old or new name), so the result only reflects the write.
    (void)sync_parent_dir(path);
    return true;
}

bool append_file(const std::string& path, std::string_view contents,
                 bool sync) {
    std::string scratch;
    const std::string_view bytes = faulted_bytes(path, contents, scratch);
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    const bool wrote = write_all(fd, bytes.data(), bytes.size());
    const bool synced = !sync || ::fsync(fd) == 0;
    ::close(fd);
    return wrote && synced && bytes.size() == contents.size();
}

bool sync_parent_dir(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash == 0 ? 1 : slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    CICHAR_CRASH_POINT("binio.atomic.post_dirsync");
    return ok;
}

std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return std::nullopt;
    return std::move(buffer).str();
}

}  // namespace cichar::util
