// Negative control for metis-lint --selftest: the sleep ban covers
// src/metis/serve/ only; a client's retry backoff may sleep. Never
// compiled.
#include <chrono>
#include <thread>

namespace metis::net {

void backoff() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }

}  // namespace metis::net
