#include "ate/search_until_trip.hpp"

#include "ate/search_task.hpp"

namespace cichar::ate {

double SearchUntilTrip::offset_after(const Options& options,
                                     std::size_t iterations) noexcept {
    const auto it = static_cast<double>(iterations);
    switch (options.growth) {
        case SearchFactorGrowth::kLinear:
            return options.search_factor * it;
        case SearchFactorGrowth::kTriangular:
            return options.search_factor * it * (it + 1.0) * 0.5;
    }
    return options.search_factor * it;
}

SearchResult SearchUntilTrip::find(const Oracle& oracle,
                                   const Parameter& parameter) const {
    // The blocking entry point is a thin loop over the same resumable
    // task the async pipeline drives, so both paths probe identically.
    SearchUntilTripTask task(options_, rtp_, parameter);
    return run_search_task(task, oracle);
}

}  // namespace cichar::ate
