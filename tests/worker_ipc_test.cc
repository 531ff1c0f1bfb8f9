// Tests for the hardened fd plumbing the journal and the fabric share —
// frame round-trips, malformed-header rejection, and the SIGPIPE regression:
// a peer that dies before the writer's next write must surface as a
// WriteFrame/WriteAll return-value failure, never as writer process death.

#include "src/core/worker_ipc.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

namespace zebra {
namespace {

class PipePair {
 public:
  PipePair() { EXPECT_EQ(::pipe(fds_), 0); }
  ~PipePair() {
    CloseRead();
    CloseWrite();
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }
  void CloseRead() {
    if (fds_[0] >= 0) {
      ::close(fds_[0]);
      fds_[0] = -1;
    }
  }
  void CloseWrite() {
    if (fds_[1] >= 0) {
      ::close(fds_[1]);
      fds_[1] = -1;
    }
  }

 private:
  int fds_[2] = {-1, -1};
};

TEST(WorkerIpcTest, FrameRoundTrip) {
  PipePair pipe;
  const std::string payload = "run 42 0\nparam.a,param.b";
  ASSERT_TRUE(WriteFrame(pipe.write_fd(), payload));
  std::string got;
  ASSERT_TRUE(ReadFrame(pipe.read_fd(), &got));
  EXPECT_EQ(got, payload);
}

TEST(WorkerIpcTest, EmptyAndBinaryPayloadsRoundTrip) {
  PipePair pipe;
  ASSERT_TRUE(WriteFrame(pipe.write_fd(), ""));
  std::string binary("\x00\x01\xff\n\x1f", 5);
  ASSERT_TRUE(WriteFrame(pipe.write_fd(), binary));
  std::string got;
  ASSERT_TRUE(ReadFrame(pipe.read_fd(), &got));
  EXPECT_EQ(got, "");
  ASSERT_TRUE(ReadFrame(pipe.read_fd(), &got));
  EXPECT_EQ(got, binary);
}

TEST(WorkerIpcTest, ReadFrameFailsOnEof) {
  PipePair pipe;
  pipe.CloseWrite();
  std::string got;
  EXPECT_FALSE(ReadFrame(pipe.read_fd(), &got));
}

TEST(WorkerIpcTest, ReadFrameRejectsGarbledHeader) {
  // Exactly what a kGarbledFrame fault injects: 16 junk bytes where the
  // zero-padded decimal length header belongs.
  PipePair pipe;
  ASSERT_TRUE(WriteAll(pipe.write_fd(), "!GARBLED-FRAME!!", 16));
  pipe.CloseWrite();
  std::string got;
  EXPECT_FALSE(ReadFrame(pipe.read_fd(), &got));
}

TEST(WorkerIpcTest, ReadFrameRejectsTruncatedPayload) {
  PipePair pipe;
  // A valid header promising more bytes than ever arrive (torn write).
  ASSERT_TRUE(WriteAll(pipe.write_fd(), "0000000000000100", 16));
  ASSERT_TRUE(WriteAll(pipe.write_fd(), "short", 5));
  pipe.CloseWrite();
  std::string got;
  EXPECT_FALSE(ReadFrame(pipe.read_fd(), &got));
}

TEST(WorkerIpcTest, WriteToDeadReaderFailsWithoutKillingProcess) {
  // Regression test for the dispatch-time race: the worker exits (its read
  // end closes) after the parent decided to dispatch but before the write.
  // With SIGPIPE ignored the write must return false — reaching the
  // assertions below *is* the test; an unhandled SIGPIPE would kill us.
  ScopedIgnoreSigPipe guard;

  PipePair pipe;
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child plays the worker that dies immediately without reading.
    std::_Exit(0);
  }
  pipe.CloseRead();  // parent's copy; the child's copy dies with the child
  ASSERT_TRUE(ReapAll({pid}));

  // Fill past the pipe buffer if needed: the first small write after the
  // reader is gone already fails with EPIPE.
  EXPECT_FALSE(WriteFrame(pipe.write_fd(), "run 0 0\n"));
  EXPECT_FALSE(WriteAll(pipe.write_fd(), "x", 1));
}

TEST(WorkerIpcTest, ZeroLengthTransfersAreNoOpSuccesses) {
  // size == 0 must succeed without touching the buffer or the fd: callers
  // pass payload.data() of an empty std::string, which may be any pointer
  // the implementation must not dereference — and a read(fd, buf, 0) would
  // be indistinguishable from EOF if it were attempted.
  PipePair pipe;
  EXPECT_TRUE(WriteAll(pipe.write_fd(), nullptr, 0));
  EXPECT_TRUE(ReadExact(pipe.read_fd(), nullptr, 0));

  // Even on a closed-down pipe: a no-op has no failure mode.
  pipe.CloseRead();
  ScopedIgnoreSigPipe guard;
  EXPECT_TRUE(WriteAll(pipe.write_fd(), nullptr, 0));
}

TEST(WorkerIpcTest, EpipeOnHalfClosedSocketSurfacesAsWriteFailure) {
  // The fabric variant of the dead-reader race: on a TCP-style socket the
  // peer's close is asymmetric — our first write after the half-close may
  // succeed into the kernel buffer (triggering an RST), and only a *later*
  // write surfaces EPIPE. Every write must report failure by return value
  // eventually, never by SIGPIPE process death.
  ScopedIgnoreSigPipe guard;

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // peer vanishes (agent crash)

  // Drive writes until the failure surfaces; with AF_UNIX the very first
  // write to a closed peer already fails, but the loop documents the
  // contract for transports where it takes two.
  bool failed = false;
  for (int i = 0; i < 4 && !failed; ++i) {
    failed = !WriteAll(fds[0], "x", 1);
  }
  EXPECT_TRUE(failed);
  // Once broken, always broken: subsequent writes keep failing cleanly.
  EXPECT_FALSE(WriteFrame(fds[0], "run 0 0\n"));
  ::close(fds[0]);
}

TEST(WorkerIpcTest, ReapAllReportsNonZeroExit) {
  pid_t ok = ::fork();
  ASSERT_GE(ok, 0);
  if (ok == 0) {
    std::_Exit(0);
  }
  EXPECT_TRUE(ReapAll({ok}));

  pid_t bad = ::fork();
  ASSERT_GE(bad, 0);
  if (bad == 0) {
    std::_Exit(13);
  }
  EXPECT_FALSE(ReapAll({bad}));
}

}  // namespace
}  // namespace zebra
