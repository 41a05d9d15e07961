/**
 * @file
 * ThreadPool survives only as an empty type: nothing in the library
 * starts a thread, because translation and promotion run on the
 * thread that needs the body. perfbench still constructs one and
 * passes it to CodeManager::setAdaptive, which ignores it.
 */

#ifndef LLVA_SUPPORT_THREAD_POOL_H
#define LLVA_SUPPORT_THREAD_POOL_H

namespace llva {

class ThreadPool
{
  public:
    explicit ThreadPool(unsigned = 1) {}
};

} // namespace llva

#endif // LLVA_SUPPORT_THREAD_POOL_H
