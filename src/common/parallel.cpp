#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/error.h"

namespace eta2::parallel {
namespace {

// Set for pool workers permanently and for the calling thread while it
// participates in a region; nested regions detect it and run inline.
thread_local bool tls_in_region = false;

std::size_t resolve_auto_threads() {
  if (const char* env = std::getenv("ETA2_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::atomic<std::size_t> g_thread_override{0};  // 0 = automatic

// Lazily grown pool of persistent workers. A region posts one job (chunked
// index range + body) with lanes − 1 worker seats; the caller and the
// workers that took a seat race to grab chunks via an atomic cursor. Chunk
// boundaries are computed from (n, grain) alone, so which thread runs a
// chunk never affects what the chunk computes.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void run(std::size_t lanes, std::size_t n, std::size_t grain,
           const std::function<void(std::size_t, std::size_t)>& body) {
    // One top-level region at a time; concurrent posters queue here. Bodies
    // never re-enter (nested regions run inline), so this cannot deadlock.
    const std::lock_guard<std::mutex> region_lock(run_mutex_);
    const std::size_t chunks = (n + grain - 1) / grain;
    ensure_workers(lanes - 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // eta2-lint: allow(guarded-by) — publication pattern: the job fields
      // are written under mutex_ and read by lanes only after they observe
      // the posting under the same mutex (see work_chunks); the analyzer
      // cannot see that happens-before edge.
      body_ = &body;
      n_ = n;
      grain_ = grain;
      chunks_ = chunks;  // eta2-lint: allow(guarded-by) — see body_ above
      // The caller is one lane; at most lanes − 1 workers may join, however
      // many an earlier, wider region spawned.
      seats_ = lanes - 1;
      done_chunks_ = 0;
      error_ = nullptr;
      next_chunk_.store(0, std::memory_order_relaxed);
      ++generation_;
    }
    work_cv_.notify_all();

    tls_in_region = true;
    work_chunks();
    tls_in_region = false;

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] {
      return done_chunks_ == chunks_ && active_workers_ == 0;
    });
    body_ = nullptr;
    const std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    if (error) std::rethrow_exception(error);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void ensure_workers(std::size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < count) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main() ETA2_THREAD_ENTRY {
    tls_in_region = true;
    std::uint64_t seen = 0;
    while (true) {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // Job already drained by other lanes, or all of its seats are taken.
      if (body_ == nullptr || seats_ == 0) continue;
      --seats_;
      ++active_workers_;
      lock.unlock();
      work_chunks();
      lock.lock();
      --active_workers_;
      if (done_chunks_ == chunks_ && active_workers_ == 0) {
        lock.unlock();
        done_cv_.notify_all();
      }
    }
  }

  // Grabs and executes chunks until the cursor runs past the end. Job state
  // reads are safe: workers enter only after observing the posting under the
  // mutex, and the poster does not reset state until done_chunks_ == chunks_
  // and every worker has left this function.
  void work_chunks() {
    while (true) {
      const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_) break;
      const std::size_t begin = c * grain_;
      const std::size_t end = std::min(n_, begin + grain_);
      try {
        (*body_)(begin, end);
        // eta2-lint: allow(catch-all) — exception trampoline: the worker
        // captures whatever the body threw and re-throws it on the posting
        // thread; no type information is lost.
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      std::size_t done;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done = ++done_chunks_;
      }
      if (done == chunks_) done_cv_.notify_all();
    }
  }

  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  bool stop_ ETA2_GUARDED_BY(mutex_) = false;
  std::uint64_t generation_ ETA2_GUARDED_BY(mutex_) = 0;
  std::size_t active_workers_ ETA2_GUARDED_BY(mutex_) = 0;
  std::size_t seats_ ETA2_GUARDED_BY(mutex_) = 0;  // workers the job may admit

  // Current job (guarded by mutex_ for posting/reset; read by lanes that
  // observed the posting).
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t grain_ = 1;
  std::size_t chunks_ = 0;
  std::size_t done_chunks_ ETA2_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ ETA2_GUARDED_BY(mutex_);
  std::atomic<std::size_t> next_chunk_{0};
};

}  // namespace

std::size_t thread_count() {
  const std::size_t override_value =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_value > 0) return override_value;
  return resolve_auto_threads();
}

void set_thread_count(std::size_t n) {
  require(!tls_in_region,
          "set_thread_count: cannot be called inside a parallel region");
  g_thread_override.store(n, std::memory_order_relaxed);
}

bool in_parallel_region() { return tls_in_region; }

void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = (n + g - 1) / g;
  const std::size_t lanes = thread_count();
  // Serial fallback: same chunk boundaries, ascending order, one thread.
  // The region flag is raised here too so semantics (nesting detection,
  // set_thread_count rejection) match the pooled path at any lane count.
  if (chunks <= 1 || lanes <= 1 || tls_in_region) {
    const bool was_in_region = tls_in_region;
    tls_in_region = true;
    try {
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * g;
        body(begin, std::min(n, begin + g));
      }
      // eta2-lint: allow(catch-all) — scope guard: restores the reentrancy
      // flag and immediately re-throws; nothing is swallowed.
    } catch (...) {
      tls_in_region = was_in_region;
      throw;
    }
    tls_in_region = was_in_region;
    return;
  }
  Pool::instance().run(std::min(lanes, chunks), n, g, body);
}

}  // namespace eta2::parallel
