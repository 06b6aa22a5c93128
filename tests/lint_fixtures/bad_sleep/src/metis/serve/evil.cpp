// Seeded violations for metis-lint --selftest: a poll loop in the serve
// layer, which is event-driven. Never compiled.
#include <unistd.h>

// Prose naming std::this_thread::sleep_for(...) is fine.
#include <chrono>
#include <thread>

namespace metis::serve {

void wait_for_deploy(const bool& deployed) {
  while (!deployed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void back_off() { ::usleep(1000); }

}  // namespace metis::serve
