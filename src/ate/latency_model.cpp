#include "ate/latency_model.hpp"

#include <chrono>
#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace cichar::ate {

void tighten_timer_slack() noexcept {
#if defined(__linux__)
    thread_local const bool tightened = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
    (void)tightened;
#endif
}

void LatencyModel::block(double seconds) const {
    if (seconds <= 0.0) return;
    if (sleep_) {
        sleep_(seconds);
        return;
    }
    tighten_timer_slack();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace cichar::ate
