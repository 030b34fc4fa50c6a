#include "sim/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "support/assert.hpp"

namespace arrowdq {

std::unique_ptr<LatencyModel> LatencySpec::make() const {
  switch (kind) {
    case Kind::kSynchronous:
      return make_synchronous();
    case Kind::kScaled:
      return make_scaled(param);
    case Kind::kUniformAsync:
      return make_uniform_async(seed, param);
    case Kind::kTruncatedExp:
      return make_truncated_exp(seed, param);
  }
  ARROWDQ_ASSERT_MSG(false, "unknown latency kind");
  return nullptr;
}

const char* LatencySpec::name() const {
  switch (kind) {
    case Kind::kSynchronous:
      return "synchronous";
    case Kind::kScaled:
      return "scaled";
    case Kind::kUniformAsync:
      return "uniform-async";
    case Kind::kTruncatedExp:
      return "trunc-exp";
  }
  return "?";
}

SweepRunner::SweepRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

void SweepRunner::for_indices(std::size_t n, const std::function<void(std::size_t)>& body) const {
  if (n == 0) return;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Dynamic self-scheduling: scenario runtimes vary by orders of magnitude
  // (n=16 sync vs n=1024 async), so workers claim the next index as they
  // finish instead of using a static partition.
  std::atomic<std::size_t> next{0};
  // A throw inside a worker (e.g. bad_alloc on an oversized scenario) must
  // not std::terminate the process: capture the first exception, wind the
  // pool down, join everyone, then rethrow on the calling thread.
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // stop claiming work
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();  // the calling thread is worker 0
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace arrowdq
