#include "obs/status_board.hpp"

#include <atomic>
#include <utility>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace cichar::obs {
namespace {

std::atomic<bool> g_status_enabled{false};

std::uint64_t current_pid() {
#ifdef _WIN32
    return static_cast<std::uint64_t>(_getpid());
#else
    return static_cast<std::uint64_t>(::getpid());
#endif
}

}  // namespace

bool status_enabled() noexcept {
    return g_status_enabled.load(std::memory_order_relaxed);
}

void set_status_enabled(bool enabled) noexcept {
    g_status_enabled.store(enabled, std::memory_order_relaxed);
}

StatusBoard& StatusBoard::instance() {
    static StatusBoard board;
    return board;
}

void StatusBoard::begin_campaign(std::string kind, std::string fingerprint,
                                 std::uint64_t seed,
                                 std::size_t sites_total) {
    const std::lock_guard<std::mutex> lock(mutex_);
    kind_ = std::move(kind);
    fingerprint_ = std::move(fingerprint);
    seed_ = seed;
    sites_total_ = sites_total;
    policy_retries_ = 0;
    policy_interventions_ = 0;
    campaign_start_ = std::chrono::steady_clock::now();
    sites_.clear();
    completed_seconds_.clear();
}

void StatusBoard::begin_site(std::size_t site, SitePhase phase) {
    const std::lock_guard<std::mutex> lock(mutex_);
    SiteCell& cell = sites_[site];
    cell.entry = SiteStatusEntry{};
    cell.entry.site = site;
    cell.entry.phase = phase;
    cell.started = std::chrono::steady_clock::now();
    cell.running = true;
}

void StatusBoard::post_generation(std::size_t site,
                                  const GenerationPost& post) {
    const std::lock_guard<std::mutex> lock(mutex_);
    SiteCell& cell = sites_[site];
    if (cell.started.time_since_epoch().count() == 0) {
        // First touch without begin_site (e.g. a bare hunt).
        cell.entry.site = site;
        cell.started = std::chrono::steady_clock::now();
        cell.running = true;
    }
    if (!is_terminal(cell.entry.phase)) {
        cell.entry.phase = SitePhase::kHunting;
    }
    cell.entry.generation = post.generation;
    cell.entry.generations_total = post.generations_total;
    cell.entry.evaluations = post.evaluations;
    cell.entry.best_wcr = post.best_wcr;
    cell.entry.ate_applications = post.ate_applications;
    cell.entry.cache_hits = post.cache_hits;
    cell.entry.cache_misses = post.cache_misses;
    cell.entry.inflight = post.inflight;
}

void StatusBoard::site_finished(std::size_t site, SitePhase phase,
                                std::vector<SiteOutcomeEntry> outcomes,
                                double seconds,
                                std::uint64_t policy_retries,
                                std::uint64_t policy_interventions,
                                bool restored) {
    const std::lock_guard<std::mutex> lock(mutex_);
    SiteCell& cell = sites_[site];
    cell.entry.site = site;
    cell.entry.phase = phase;
    cell.entry.outcomes = std::move(outcomes);
    cell.entry.elapsed_seconds = seconds;
    cell.running = false;
    policy_retries_ += policy_retries;
    policy_interventions_ += policy_interventions;
    if (!restored && phase == SitePhase::kDone) {
        completed_seconds_.push_back(seconds);
    }
}

StatusSnapshot StatusBoard::snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    StatusSnapshot snapshot;
    snapshot.kind = kind_;
    snapshot.fingerprint = fingerprint_;
    snapshot.seed = seed_;
    snapshot.pid = current_pid();
    snapshot.sequence = sequence_++;
    snapshot.uptime_seconds =
        campaign_start_.time_since_epoch().count() == 0
            ? 0.0
            : std::chrono::duration<double>(now - campaign_start_).count();
    snapshot.sites_total = sites_total_;
    snapshot.policy_retries = policy_retries_;
    snapshot.policy_interventions = policy_interventions_;
    snapshot.sites.reserve(sites_.size());
    for (const auto& [site, cell] : sites_) {
        SiteStatusEntry entry = cell.entry;
        if (cell.running) {
            entry.elapsed_seconds =
                std::chrono::duration<double>(now - cell.started).count();
        }
        snapshot.sites.push_back(std::move(entry));
    }
    snapshot.completed_seconds = completed_seconds_;
    return snapshot;
}

void StatusBoard::reset_for_test() {
    const std::lock_guard<std::mutex> lock(mutex_);
    kind_.clear();
    fingerprint_.clear();
    seed_ = 0;
    sites_total_ = 0;
    policy_retries_ = 0;
    policy_interventions_ = 0;
    sequence_ = 0;
    campaign_start_ = {};
    sites_.clear();
    completed_seconds_.clear();
}

}  // namespace cichar::obs
