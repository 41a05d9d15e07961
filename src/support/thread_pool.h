/**
 * @file
 * The small thread pool behind parallel per-function translation.
 * Each function translation is a self-contained, re-entrant unit
 * (it reads shared immutable IR and writes only its own
 * MachineFunction), so a work queue of function indices is all the
 * coordination needed. Callers address results by index, which is
 * what makes parallel and serial translation produce byte-identical
 * output: the work may complete in any order, but it is always
 * stored and consumed in input order.
 */

#ifndef LLVA_SUPPORT_THREAD_POOL_H
#define LLVA_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace llva {

/**
 * Apply \p fn to every index in [0, n), using up to \p jobs worker
 * threads. \p fn must be re-entrant; it runs on this thread when
 * jobs <= 1 (or n <= 1), so the serial path has zero threading
 * overhead. The first exception thrown by any worker is rethrown on
 * the calling thread after all workers have stopped.
 */
inline void
parallelFor(size_t n, unsigned jobs,
            const std::function<void(size_t)> &fn)
{
    if (jobs <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    unsigned workers = jobs < n ? jobs : static_cast<unsigned>(n);
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMu;

    auto worker = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!error)
                    error = std::current_exception();
                // Drain remaining work: let other workers finish
                // their current items and exit.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/**
 * A persistent worker pool for work that arrives over time, as
 * opposed to the fixed-size batches parallelFor serves. Jobs are
 * queued and run FIFO; enqueue() returns a future the caller may
 * wait on. An exception thrown by a job is captured into its future,
 * never lost. Workers start on the first enqueue(), so a pool that
 * is never given work costs no thread.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers = 1)
        : workers_(workers ? workers : 1)
    {}

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::future<void>
    enqueue(std::function<void()> job)
    {
        auto task = std::make_shared<std::packaged_task<void()>>(
            std::move(job));
        std::future<void> result = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.push_back([task] { (*task)(); });
            while (threads_.size() < workers_)
                threads_.emplace_back([this] { work(); });
        }
        cv_.notify_one();
        return result;
    }

  private:
    void
    work()
    {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
                if (stop_ && queue_.empty())
                    return;
                job = std::move(queue_.front());
                queue_.pop_front();
            }
            job();
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    unsigned workers_;
    bool stop_ = false;
};

/** Default worker count for a `-j 0` / "auto" request. */
inline unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 2;
}

} // namespace llva

#endif // LLVA_SUPPORT_THREAD_POOL_H
