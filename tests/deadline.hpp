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
#include <thread>

namespace pmemcpy::testutil {

/// Success when @p body, run in a forked child, throws E within
/// @p seconds; a failure naming what happened otherwise (hung past the
/// deadline, returned, threw something else, or died).
template <typename E, typename Fn>
::testing::AssertionResult throws_before_deadline(Fn&& body,
                                                  int seconds = 60) {
  const pid_t pid = fork();
  if (pid < 0) return ::testing::AssertionFailure() << "fork failed";
  if (pid == 0) {
    try {
      body();
    } catch (const E&) {
      std::_Exit(0);
    } catch (...) {
      std::_Exit(2);
    }
    std::_Exit(1);
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
      return ::testing::AssertionFailure() << "returned without throwing";
    default:
      return ::testing::AssertionFailure() << "threw another exception";
  }
}

}  // namespace pmemcpy::testutil
