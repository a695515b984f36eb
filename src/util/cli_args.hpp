// Minimal --flag argument parser used by the cichar CLI (and available to
// any downstream tool). Flags are `--key value` or bare `--key`; values
// never start with `--`. Unknown positional arguments mark the parse as
// failed so the caller can print usage.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cichar::util {

/// Cap of the worker-count and ring-depth flags (`--jobs`, `--inflight`):
/// each job is a thread and each unit of ring depth a pre-cloned replica,
/// so an unbounded value would start that many.
inline constexpr std::uint64_t kMaxWorkers = 256;

class CliArgs {
public:
    /// Whether bare (non `--`) tokens fail the parse or are collected as
    /// positional operands (`cichar ledger verify DIR`).
    enum class Positionals : std::uint8_t { kReject, kCollect };

    /// Parses argv[first..argc). Bare flags store an empty value.
    CliArgs(int argc, const char* const* argv, int first = 1,
            Positionals positionals = Positionals::kReject);

    /// Convenience for tests: tokens as strings.
    explicit CliArgs(const std::vector<std::string>& tokens,
                     Positionals positionals = Positionals::kReject);

    /// False when a positional (non `--`) token was encountered while
    /// positionals were rejected.
    [[nodiscard]] bool ok() const noexcept { return ok_; }

    /// Positional operands in command-line order (kCollect mode only).
    /// A bare token never binds as the value of a preceding flag once
    /// that flag already consumed one.
    [[nodiscard]] const std::vector<std::string>& positionals()
        const noexcept {
        return positionals_;
    }

    [[nodiscard]] bool has(const std::string& key) const;

    /// Raw value ("" for bare flags / missing keys with no fallback).
    [[nodiscard]] std::string get(const std::string& key,
                                  const std::string& fallback = "") const;

    /// Numeric accessors; return the fallback when missing or empty, and
    /// throw std::invalid_argument (from std::stoull/stod) on junk.
    [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                        std::uint64_t fallback) const;
    [[nodiscard]] double get_double(const std::string& key,
                                    double fallback) const;

    /// True when the flag is missing or empty (get_u64 then returns the
    /// caller's fallback) or holds a number in [lo, hi]; false when its
    /// value is junk or lies outside.
    [[nodiscard]] bool u64_within(const std::string& key, std::uint64_t lo,
                                  std::uint64_t hi) const;

    [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

    /// The first flag (name without "--", in name order) not listed in
    /// `known`, so a caller can reject a misspelled or retired flag
    /// instead of silently ignoring it. nullopt when every flag is known.
    [[nodiscard]] std::optional<std::string> first_unknown(
        std::span<const std::string_view> known) const;

private:
    void parse(const std::vector<std::string>& tokens,
               Positionals positionals);

    std::map<std::string, std::string> values_;
    std::vector<std::string> positionals_;
    bool ok_ = true;
};

}  // namespace cichar::util
