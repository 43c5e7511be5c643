// Runs a check in a forked child under a wall-clock deadline, so a walk
// that never ends on a damaged image fails its test instead of hanging the
// suite.
#pragma once

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>

namespace pmemcpy::testutil {

/// True when the exception @p ep holds is an E.
template <typename E>
bool holds(std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const E&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Success when @p body, run in a forked child, returns true within
/// @p seconds.  Throwing one of @p Es also counts as success (the typed
/// error a damaged image may end in).  A failure names what happened
/// otherwise: hung past the deadline, returned false (@p on_false), threw
/// something else, or died.
template <typename... Es, typename Fn>
::testing::AssertionResult passes_before_deadline(
    Fn&& body, int seconds = 60, const char* on_false = "returned false") {
  const pid_t pid = fork();
  if (pid < 0) return ::testing::AssertionFailure() << "fork failed";
  if (pid == 0) {
    int code = 0;
    try {
      code = body() ? 0 : 1;
    } catch (...) {
      code = (false || ... || holds<Es>(std::current_exception())) ? 0 : 2;
    }
    std::_Exit(code);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return ::testing::AssertionFailure()
           << "hung past the " << seconds << " s deadline";
  }
  if (done != pid || !WIFEXITED(status)) {
    return ::testing::AssertionFailure() << "child died abnormally";
  }
  switch (WEXITSTATUS(status)) {
    case 0:
      return ::testing::AssertionSuccess();
    case 1:
      return ::testing::AssertionFailure() << on_false;
    default:
      return ::testing::AssertionFailure() << "threw another exception";
  }
}

/// Success when @p body, run in a forked child, throws E within
/// @p seconds.
template <typename E, typename Fn>
::testing::AssertionResult throws_before_deadline(Fn&& body,
                                                  int seconds = 60) {
  return passes_before_deadline<E>(
      [&] {
        body();
        return false;
      },
      seconds, "returned without throwing");
}

}  // namespace pmemcpy::testutil
