#include "uld3d/util/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>

#include "uld3d/util/check.hpp"
#include "uld3d/util/fault.hpp"
#include "uld3d/util/log.hpp"

namespace uld3d {

namespace {

// Only async-signal-safe operations are allowed in a handler; a store to a
// lock-free atomic is one, and unlike a volatile sig_atomic_t it is also
// well-defined when sweep workers on other threads poll the latch.
std::atomic<bool> g_interrupt_requested{false};
std::atomic<int> g_interrupt_signal{0};
static_assert(std::atomic<bool>::is_always_lock_free &&
                  std::atomic<int>::is_always_lock_free,
              "the interrupt latch must be usable from a signal handler");

extern "C" void interrupt_handler(int signal_number) {
  g_interrupt_requested.store(true, std::memory_order_relaxed);
  g_interrupt_signal.store(signal_number, std::memory_order_relaxed);
}

/// Flush OS buffers to stable storage so the subsequent rename publishes a
/// fully-persisted file (rename alone is enough for kill-safety; fsync adds
/// power-loss safety).  Best-effort: a filesystem without fsync support
/// must not fail the write.
void best_effort_fsync(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& content) {
  expects(!path.empty(), "atomic write needs a destination path");
  const std::string temp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream file(temp_path, std::ios::binary | std::ios::trunc);
    if (!file) {
      log_warning("could not open temp file for atomic write: " + temp_path);
      return false;
    }
    file << content;
    file.flush();
    if (!file.good()) {
      file.close();
      std::remove(temp_path.c_str());
      log_warning("short write to temp file (disk full?): " + temp_path);
      return false;
    }
  }
  best_effort_fsync(temp_path);
  try {
    // A crash "here" — after the temp is complete but before the rename —
    // is the interesting window: the destination must stay untouched.
    fault_site("util.export.atomic_write");
  } catch (...) {
    std::remove(temp_path.c_str());
    throw;
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    log_warning("could not rename temp file into place: " + temp_path +
                " -> " + path);
    return false;
  }
  return true;
}

void install_interrupt_handlers() {
  std::signal(SIGINT, interrupt_handler);
  std::signal(SIGTERM, interrupt_handler);
}

bool interrupt_requested() {
  return g_interrupt_requested.load(std::memory_order_relaxed);
}

int interrupt_signal() {
  return g_interrupt_signal.load(std::memory_order_relaxed);
}

void set_interrupt_requested(bool requested) {
  g_interrupt_requested.store(requested, std::memory_order_relaxed);
  if (!requested) g_interrupt_signal.store(0, std::memory_order_relaxed);
}

}  // namespace uld3d
