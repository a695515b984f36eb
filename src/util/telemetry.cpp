#include "util/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/ascii.hpp"

namespace cichar::util::telemetry {

namespace {

std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_tracing_enabled{false};

/// Monotonic nanoseconds since the first telemetry timestamp request.
std::uint64_t now_ns() {
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count());
}

/// Small stable per-process thread index (0, 1, 2, ...).
std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

/// Per-thread stack of open span ids; provides parent linkage.
thread_local std::vector<std::uint64_t> tl_span_stack;

std::string format_double(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

}  // namespace

bool metrics_enabled() noexcept {
    return g_metrics_enabled.load(std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
    return g_tracing_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept {
    g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) noexcept {
    g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Histogram

struct Histogram::Shard {
    explicit Shard(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;  ///< last = overflow
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
};

Histogram::Histogram(std::vector<double> upper_bounds)
    : id_([] {
          static std::atomic<std::uint64_t> next{1};
          return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      bounds_(std::move(upper_bounds)) {
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
}

Histogram::~Histogram() = default;

Histogram::Shard& Histogram::local_shard() {
    // One cache per thread, keyed by process-unique histogram id: ids are
    // never reused, so a stale entry can never alias a new histogram.
    thread_local std::vector<std::pair<std::uint64_t, Shard*>> cache;
    for (const auto& [id, shard] : cache) {
        if (id == id_) return *shard;
    }
    Shard* shard = nullptr;
    {
        const std::lock_guard<std::mutex> lock(shards_mutex_);
        shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
        shard = shards_.back().get();
    }
    cache.emplace_back(id_, shard);
    return *shard;
}

void Histogram::observe(double value) {
    Shard& shard = local_shard();
    std::size_t bucket = bounds_.size();  // overflow (+Inf) by default
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {  // NaN fails every comparison -> overflow
            bucket = i;
            break;
        }
    }
    shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    double sum = shard.sum.load(std::memory_order_relaxed);
    while (!shard.sum.compare_exchange_weak(sum, sum + value,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed)) {
    }
}

Histogram::Snapshot Histogram::snapshot() const {
    Snapshot snap;
    snap.upper_bounds = bounds_;
    snap.counts.assign(bounds_.size() + 1, 0);
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (const std::unique_ptr<Shard>& shard : shards_) {
        for (std::size_t b = 0; b < snap.counts.size(); ++b) {
            snap.counts[b] +=
                shard->counts[b].load(std::memory_order_relaxed);
        }
        snap.count += shard->count.load(std::memory_order_relaxed);
        snap.sum += shard->sum.load(std::memory_order_relaxed);
    }
    return snap;
}

void Histogram::reset() {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    for (const std::unique_ptr<Shard>& shard : shards_) {
        for (std::atomic<std::uint64_t>& c : shard->counts) {
            c.store(0, std::memory_order_relaxed);
        }
        shard->count.store(0, std::memory_order_relaxed);
        shard->sum.store(0.0, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------------
// Registry

Registry& Registry::instance() {
    static Registry registry;
    return registry;
}

Counter& Registry::counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
    return *counters_.emplace(std::string(name), std::make_unique<Counter>())
                .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) return *it->second;
    return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
                .first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> upper_bounds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
    return *histograms_
                .emplace(std::string(name),
                         std::make_unique<Histogram>(std::vector<double>(
                             upper_bounds.begin(), upper_bounds.end())))
                .first->second;
}

std::string Registry::render_prometheus() const {
    // Snapshot the three maps under the lock, render outside it (the
    // histogram snapshot takes each histogram's own shard lock).
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
    std::vector<std::pair<std::string, const Histogram*>> histograms;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& [name, c] : counters_) {
            counters.emplace_back(name, c.get());
        }
        for (const auto& [name, g] : gauges_) {
            gauges.emplace_back(name, g.get());
        }
        for (const auto& [name, h] : histograms_) {
            histograms.emplace_back(name, h.get());
        }
    }
    std::ostringstream out;
    for (const auto& [name, c] : counters) {
        out << "# TYPE " << name << " counter\n"
            << name << ' ' << c->value() << '\n';
    }
    for (const auto& [name, g] : gauges) {
        out << "# TYPE " << name << " gauge\n"
            << name << ' ' << format_double(g->value()) << '\n';
    }
    for (const auto& [name, h] : histograms) {
        const Histogram::Snapshot snap = h->snapshot();
        out << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < snap.upper_bounds.size(); ++b) {
            cumulative += snap.counts[b];
            out << name << "_bucket{le=\""
                << format_double(snap.upper_bounds[b]) << "\"} " << cumulative
                << '\n';
        }
        cumulative += snap.counts.empty() ? 0 : snap.counts.back();
        out << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
        out << name << "_sum " << format_double(snap.sum) << '\n';
        out << name << "_count " << snap.count << '\n';
    }
    return out.str();
}

bool Registry::load_prometheus(std::istream& in) {
    if (!in) return false;
    std::map<std::string, std::string> types;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string name;
            std::string type;
            if (fields >> name >> type) types[name] = type;
            continue;
        }
        if (line[0] == '#') continue;
        if (line.find('{') != std::string::npos) continue;  // histogram series
        const std::size_t space = line.find_last_of(' ');
        if (space == std::string::npos || space == 0) continue;
        const std::string name = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        const auto type = types.find(name);
        if (type == types.end()) continue;  // _sum/_count have no own TYPE
        if (type->second == "counter") {
            counter(name).set(std::strtoull(value.c_str(), nullptr, 10));
        } else if (type->second == "gauge") {
            gauge(name).set(std::strtod(value.c_str(), nullptr));
        }
    }
    return !in.bad();
}

void Registry::reset_values() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) c->set(0);
    for (const auto& [name, g] : gauges_) g->set(0.0);
    for (const auto& [name, h] : histograms_) h->reset();
}

// ---------------------------------------------------------------------
// Trace

Trace& Trace::instance() {
    static Trace trace;
    return trace;
}

std::uint64_t Trace::begin_span(std::string_view name) {
    TraceEvent event;
    event.begin = true;
    event.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    event.parent = tl_span_stack.empty() ? 0 : tl_span_stack.back();
    event.tid = thread_index();
    event.ts_ns = now_ns();
    event.name = std::string(name);
    const std::uint64_t id = event.id;
    tl_span_stack.push_back(id);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(std::move(event));
    }
    return id;
}

void Trace::end_span(std::uint64_t id) {
    // Pop through any unbalanced inner entries (defensive; scopes are
    // RAII so the top should always match).
    while (!tl_span_stack.empty()) {
        const std::uint64_t top = tl_span_stack.back();
        tl_span_stack.pop_back();
        if (top == id) break;
    }
    TraceEvent event;
    event.begin = false;
    event.id = id;
    event.tid = thread_index();
    event.ts_ns = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void Trace::write_jsonl(std::ostream& out) const {
    std::vector<TraceEvent> events;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        events = events_;
    }
    out << "{\"ev\":\"meta\",\"format\":\"cichar-trace\",\"version\":1}\n";
    for (const TraceEvent& event : events) {
        if (event.begin) {
            out << "{\"ev\":\"B\",\"id\":" << event.id
                << ",\"parent\":" << event.parent << ",\"tid\":" << event.tid
                << ",\"ts_ns\":" << event.ts_ns << ",\"name\":\""
                << escape_json(event.name) << "\"}\n";
        } else {
            out << "{\"ev\":\"E\",\"id\":" << event.id
                << ",\"tid\":" << event.tid << ",\"ts_ns\":" << event.ts_ns
                << "}\n";
        }
    }
}

std::size_t Trace::event_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void Trace::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

}  // namespace cichar::util::telemetry
