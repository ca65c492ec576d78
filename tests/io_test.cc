// Instrumented I/O layer: read/write correctness, sequential vs random
// classification, buffered reader/writer behaviour, and error paths.
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/io/buffered_io.h"
#include "src/io/file.h"
#include "src/io/io_stats.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;

TEST(WritableFile, AppendThenReadBack) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  std::vector<uint8_t> payload(10000);
  Rng rng(1);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.UniformInt(256));
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_OK(WritableFile::Create(path, &f));
    ASSERT_OK(f->Append(payload.data(), 4000));
    ASSERT_OK(f->Append(payload.data() + 4000, 6000));
    EXPECT_EQ(f->size(), 10000u);
    ASSERT_OK(f->Close());
  }
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_OK(RandomAccessFile::Open(path, &f));
  EXPECT_EQ(f->size(), 10000u);
  std::vector<uint8_t> back(10000);
  ASSERT_OK(f->Read(0, 10000, back.data()));
  EXPECT_EQ(back, payload);
}

TEST(WritableFile, WriteAtOverwritesAndExtends) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  std::unique_ptr<WritableFile> f;
  ASSERT_OK(WritableFile::Create(path, &f));
  const char a[] = "aaaaaaaa";
  const char b[] = "bb";
  ASSERT_OK(f->Append(a, 8));
  ASSERT_OK(f->WriteAt(2, b, 2));  // overwrite inside
  ASSERT_OK(f->WriteAt(10, b, 2));  // write past the end (hole at 8..10)
  EXPECT_EQ(f->size(), 12u);
  ASSERT_OK(f->Close());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_OK(RandomAccessFile::Open(path, &r));
  char out[12];
  ASSERT_OK(r->Read(0, 12, out));
  EXPECT_EQ(std::memcmp(out, "aabbaaaa", 8), 0);
  EXPECT_EQ(out[10], 'b');
}

TEST(WritableFile, OpenForAppendContinuesExistingFile) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_OK(WritableFile::Create(path, &f));
    ASSERT_OK(f->Append("hello", 5));
    ASSERT_OK(f->Close());
  }
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_OK(WritableFile::OpenForAppend(path, &f));
    EXPECT_EQ(f->size(), 5u);
    ASSERT_OK(f->Append("world", 5));
    ASSERT_OK(f->Close());
  }
  uint64_t size = 0;
  ASSERT_OK(FileSize(path, &size));
  EXPECT_EQ(size, 10u);
}

TEST(IoCounters, ClassifiesSequentialAndRandomReads) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_OK(WritableFile::Create(path, &f));
    std::vector<uint8_t> data(4096, 7);
    for (int i = 0; i < 8; ++i) ASSERT_OK(f->Append(data.data(), 4096));
    ASSERT_OK(f->Close());
  }
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_OK(RandomAccessFile::Open(path, &f));
  uint8_t buf[4096];
  const IoSnapshot before = IoCounterSet::FromRegistry("io.").Snapshot();
  // A scan from the file start is sequential (offset 0 is the initial
  // expected position); continuations stay sequential.
  ASSERT_OK(f->Read(0, 4096, buf));
  ASSERT_OK(f->Read(4096, 4096, buf));
  ASSERT_OK(f->Read(8192, 4096, buf));
  // A backwards seek is random; the read after it continues sequentially.
  ASSERT_OK(f->Read(0, 4096, buf));
  ASSERT_OK(f->Read(4096, 4096, buf));
  // A forward skip is also random.
  ASSERT_OK(f->Read(16384, 4096, buf));
  const IoSnapshot s = IoCounterSet::FromRegistry("io.").Snapshot() - before;
  EXPECT_EQ(s.read_ops, 6u);
  EXPECT_EQ(s.random_read_ops, 2u);
  EXPECT_EQ(s.bytes_read, 6u * 4096u);
}

TEST(RandomAccessFile, ReadPastEofFails) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_OK(WritableFile::Create(path, &f));
    ASSERT_OK(f->Append("abc", 3));
    ASSERT_OK(f->Close());
  }
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_OK(RandomAccessFile::Open(path, &f));
  char buf[8];
  EXPECT_FALSE(f->Read(0, 8, buf).ok());
}

TEST(RandomAccessFile, OpenMissingFails) {
  ScratchDir dir;
  std::unique_ptr<RandomAccessFile> f;
  EXPECT_TRUE(RandomAccessFile::Open(dir.File("nope"), &f).IsIOError());
}

TEST(BufferedWriter, SplitsLargePayloadsAcrossFlushes) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  BufferedWriter w(1024);  // tiny buffer
  ASSERT_OK(w.Open(path));
  std::vector<uint8_t> payload(10000);
  Rng rng(2);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.UniformInt(256));
  ASSERT_OK(w.Write(payload.data(), payload.size()));
  ASSERT_OK(w.Finish());
  EXPECT_EQ(w.bytes_written(), 10000u);
  BufferedReader r(512);
  ASSERT_OK(r.Open(path));
  std::vector<uint8_t> back(10000);
  ASSERT_OK(r.Read(back.data(), back.size()));
  EXPECT_EQ(back, payload);
}

TEST(BufferedReader, SkipAndReadInterleave) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  {
    BufferedWriter w;
    ASSERT_OK(w.Open(path));
    for (uint32_t i = 0; i < 1000; ++i) {
      ASSERT_OK(w.Write(&i, sizeof(i)));
    }
    ASSERT_OK(w.Finish());
  }
  BufferedReader r(64);
  ASSERT_OK(r.Open(path));
  uint32_t v;
  ASSERT_OK(r.Read(&v, 4));
  EXPECT_EQ(v, 0u);
  ASSERT_OK(r.Skip(4 * 10));
  ASSERT_OK(r.Read(&v, 4));
  EXPECT_EQ(v, 11u);
  ASSERT_OK(r.Skip(4 * 900));
  ASSERT_OK(r.Read(&v, 4));
  EXPECT_EQ(v, 912u);
  EXPECT_FALSE(r.Skip(1 << 20).ok());
}

TEST(BufferedReader, ReadPastEofFails) {
  ScratchDir dir;
  const std::string path = dir.File("f.bin");
  {
    BufferedWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Write("xy", 2));
    ASSERT_OK(w.Finish());
  }
  BufferedReader r;
  ASSERT_OK(r.Open(path));
  char buf[4];
  EXPECT_FALSE(r.Read(buf, 4).ok());
}

}  // namespace
}  // namespace coconut
