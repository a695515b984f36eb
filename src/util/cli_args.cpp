#include "util/cli_args.hpp"

#include <algorithm>

namespace cichar::util {

CliArgs::CliArgs(int argc, const char* const* argv, int first,
                 Positionals positionals) {
    std::vector<std::string> tokens;
    for (int i = first; i < argc; ++i) tokens.emplace_back(argv[i]);
    parse(tokens, positionals);
}

CliArgs::CliArgs(const std::vector<std::string>& tokens,
                 Positionals positionals) {
    parse(tokens, positionals);
}

void CliArgs::parse(const std::vector<std::string>& tokens,
                    Positionals positionals) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string& token = tokens[i];
        if (token.rfind("--", 0) != 0) {
            if (positionals == Positionals::kCollect) {
                positionals_.push_back(token);
            } else {
                ok_ = false;
            }
            continue;
        }
        const std::string key = token.substr(2);
        std::string value;
        if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
            value = tokens[++i];
        }
        values_[key] = value;
    }
}

bool CliArgs::has(const std::string& key) const {
    return values_.count(key) > 0;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
}

std::uint64_t CliArgs::get_u64(const std::string& key,
                               std::uint64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return fallback;
    return std::stoull(it->second);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return fallback;
    return std::stod(it->second);
}

std::optional<std::string> CliArgs::first_unknown(
    std::span<const std::string_view> known) const {
    for (const auto& [key, value] : values_) {
        if (std::find(known.begin(), known.end(), key) == known.end()) {
            return key;
        }
    }
    return std::nullopt;
}

}  // namespace cichar::util
