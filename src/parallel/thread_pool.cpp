#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "common/run_counters.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

namespace eth {

namespace {

// Identifies the pool (if any) whose worker is running the current
// thread, so nested parallel loops degrade to inline execution instead
// of deadlocking on submit-and-wait from inside a worker.
thread_local const ThreadPool* t_worker_pool = nullptr;

// CPU seconds workers executed on behalf of this thread (see
// borrowed_cpu_seconds() in the header). Written only by the owning
// thread, after its loops join.
thread_local double t_borrowed_cpu = 0;

} // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = static_cast<unsigned>(knobs::value(knobs::Knob::threads));
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] {
      t_worker_pool = this;
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    require(!shutting_down_, "ThreadPool::submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void TaskGroup::launch(ThreadPool& pool, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool.submit([this, task = std::move(task)] {
    task();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) done_.notify_all();
  });
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return; // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task(); // noexcept boundary: a throwing task terminates
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {
std::atomic<ThreadPool*> g_pool_override{nullptr};
} // namespace

ThreadPool& global_pool() {
  if (ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire))
    return *override_pool;
  static ThreadPool pool;
  return pool;
}

void set_global_pool(ThreadPool* pool) {
  knobs::set_override(knobs::Knob::threads,
                      pool != nullptr ? std::to_string(pool->size()).c_str() : nullptr);
  g_pool_override.store(pool, std::memory_order_release);
}

double borrowed_cpu_seconds() { return t_borrowed_cpu; }

KernelTimer::KernelTimer()
    : cpu_start_(ThreadCpuTimer::now()), borrowed_start_(t_borrowed_cpu) {}

double KernelTimer::elapsed() const {
  return (ThreadCpuTimer::now() - cpu_start_) + (t_borrowed_cpu - borrowed_start_);
}

ChunkFanout::ChunkFanout(ThreadPool& pool)
    : pool_(pool),
      inline_(pool.size() <= 1 || pool.on_worker_thread()),
      // Worker-executed chunks attribute to the ISSUING thread's trace
      // track, exactly as their CPU time credits its borrowed-CPU
      // accumulator: a chunk rendered by a pool worker belongs on the
      // issuing rank's timeline. The issuing run's counter sink
      // propagates the same way, so data-plane bytes moved inside a
      // worker chunk are charged to the run that issued the loop, not
      // to whichever run's rank happens to share the pool.
      issuing_track_(trace::current_track()),
      issuing_sink_(current_run_sink()) {}

ChunkFanout::~ChunkFanout() { wait_pending(); }

void ChunkFanout::submit(Index chunk, std::function<void()> fn) {
  if (inline_) {
    fn();
    return;
  }
  // Only this (the issuing) thread increments, and every decrement
  // happens under mutex_, so the count needs no lock here.
  pending_.fetch_add(1, std::memory_order_relaxed);
  pool_.submit([this, chunk, fn = std::move(fn)] {
    const trace::TrackScope track_scope(issuing_track_);
    const RunSinkScope sink_scope(issuing_sink_);
    const ThreadCpuTimer chunk_timer;
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    const double chunk_cpu = chunk_timer.elapsed();
    std::lock_guard<std::mutex> lock(mutex_);
    cpu_total_ += chunk_cpu;
    if (error && (first_error_chunk_ < 0 || chunk < first_error_chunk_)) {
      first_error_ = error;
      first_error_chunk_ = chunk;
    }
    if (pending_.fetch_sub(1, std::memory_order_relaxed) == 1) done_.notify_one();
  });
}

void ChunkFanout::wait_pending() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return pending_.load(std::memory_order_relaxed) == 0; });
}

void ChunkFanout::join() {
  wait_pending();
  t_borrowed_cpu += cpu_total_;
  cpu_total_ = 0;
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

namespace {

/// Shared fan-out/join for both loop flavors: runs chunk c's body
/// `run(c)` for every c < `chunks` on the pool and joins.
void run_chunks_on_pool(ThreadPool& pool, Index chunks,
                        const std::function<void(Index)>& run) {
  ChunkFanout fanout(pool);
  for (Index c = 0; c < chunks; ++c) fanout.submit(c, [&run, c] { run(c); });
  fanout.join();
}

} // namespace

void parallel_for(ThreadPool& pool, Index begin, Index end, Index grain,
                  const std::function<void(Index, Index)>& fn) {
  require(grain > 0, "parallel_for: grain must be positive");
  if (begin >= end) return;

  const Index n = end - begin;
  const Index workers = static_cast<Index>(pool.size());
  // Inline when chunking cannot help (tiny range, single worker) or
  // must not happen (already on a worker of this pool: a nested
  // submit-and-wait could deadlock with every worker blocked waiting).
  if (workers <= 1 || n <= grain || pool.on_worker_thread()) {
    fn(begin, end);
    return;
  }

  const Index chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const Index chunk_size = (n + chunks - 1) / chunks;
  const Index live_chunks = (n + chunk_size - 1) / chunk_size;

  run_chunks_on_pool(pool, live_chunks, [&](Index c) {
    const Index b = begin + c * chunk_size;
    const Index e = std::min(b + chunk_size, end);
    fn(b, e);
  });
}

Index plan_chunks(Index n, Index grain, Index max_chunks) {
  require(grain > 0, "plan_chunks: grain must be positive");
  require(max_chunks > 0, "plan_chunks: max_chunks must be positive");
  if (n <= 0) return 1;
  return std::min(max_chunks, (n + grain - 1) / grain);
}

void parallel_for_chunks(ThreadPool& pool, Index begin, Index end, Index n_chunks,
                         const std::function<void(Index, Index, Index)>& fn) {
  require(n_chunks > 0, "parallel_for_chunks: n_chunks must be positive");
  if (begin >= end) return;
  const Index n = end - begin;

  // Chunk c covers [begin + n*c/n_chunks, begin + n*(c+1)/n_chunks) — a
  // pure function of the range, identical at every thread count.
  const auto chunk_begin = [&](Index c) { return begin + n * c / n_chunks; };

  // The "chunk" span is emitted here and NOT in parallel_for: this
  // decomposition is thread-count-invariant, so the per-phase span
  // counts stay deterministic across pool sizes (the trace-determinism
  // test depends on it). plain parallel_for sizes its chunking off the
  // pool and would break that contract.
  if (pool.size() <= 1 || pool.on_worker_thread()) {
    for (Index c = 0; c < n_chunks; ++c) {
      const Index b = chunk_begin(c), e = chunk_begin(c + 1);
      if (b < e) {
        const trace::Span span("chunk");
        fn(c, b, e);
      }
    }
    return;
  }

  run_chunks_on_pool(pool, n_chunks, [&](Index c) {
    const Index b = chunk_begin(c), e = chunk_begin(c + 1);
    if (b < e) {
      const trace::Span span("chunk");
      fn(c, b, e);
    }
  });
}

} // namespace eth
