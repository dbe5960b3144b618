// The file seam (common/file_io.h): whole-file reads and writes, the
// append-only feed file, and the framed block file — offsets across
// reopen, random reads, torn tails, bit flips, the locked commit log and
// its short-tail rule. Also pins
// the error contract of every caller that persists state: an unreadable
// path (a directory) or a failing device (/dev/full) is an IoError, never
// an empty result or a silent success. Labeled `snapshot`, so the TSan and
// ASan CI steps run it.
#include "common/file_io.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/config_io.h"
#include "engine/audit_log.h"
#include "fuzz/corpus.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace dbfa {
namespace {

namespace fs = std::filesystem;

constexpr const char* kDevFull = "/dev/full";

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string Join(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

void FlipByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x40));
}

// ---- whole-file reads and writes -------------------------------------------

TEST(FileIoTest, WriteThenReadRoundTrips) {
  std::string dir = FreshDir("file_io_roundtrip");
  std::string path = Join(dir, "data.bin");
  std::string contents("text\0with\xffnul", 13);
  ASSERT_TRUE(WriteFile(path, contents).ok());
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, contents);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), contents);

  // Rewriting truncates; an empty file reads back empty.
  ASSERT_TRUE(WriteFile(path, "").ok());
  auto empty = ReadFile(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FileIoTest, ReadsFilesLargerThanOneChunk) {
  std::string path = Join(FreshDir("file_io_large"), "big.bin");
  std::string contents(300000, 'x');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 31);
  }
  ASSERT_TRUE(WriteFile(path, contents).ok());
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, contents);
}

TEST(FileIoTest, ReadErrorsAreIoErrors) {
  std::string dir = FreshDir("file_io_read_errors");
  EXPECT_EQ(ReadFile(dir).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadFileBytes(dir).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadFile(Join(dir, "missing")).status().code(),
            StatusCode::kIoError);
}

TEST(FileIoTest, WriteErrorsAreIoErrors) {
  std::string dir = FreshDir("file_io_write_errors");
  EXPECT_EQ(WriteFile(dir, "x").code(), StatusCode::kIoError);
  EXPECT_EQ(WriteFile(Join(dir, "no/such/dir"), "x").code(),
            StatusCode::kIoError);
  if (!fs::exists(kDevFull)) GTEST_SKIP() << "no /dev/full";
  EXPECT_EQ(WriteFile(kDevFull, "lost").code(), StatusCode::kIoError);
  auto feed = AppendOnlyFile::Open(kDevFull);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  EXPECT_EQ(feed->Append("line\n").code(), StatusCode::kIoError);
}

TEST(FileIoTest, AppendOnlyFileExtendsExistingContent) {
  std::string path = Join(FreshDir("file_io_append"), "findings.feed");
  {
    auto feed = AppendOnlyFile::Open(path);
    ASSERT_TRUE(feed.ok());
    ASSERT_TRUE(feed->Append("a\n").ok());
    // Visible before the handle closes: every append is flushed.
    EXPECT_EQ(ReadFile(path).value(), "a\n");
  }
  auto reopened = AppendOnlyFile::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->Append("b\n").ok());
  EXPECT_EQ(ReadFile(path).value(), "a\nb\n");
  EXPECT_EQ(AppendOnlyFile().Append("x").code(),
            StatusCode::kFailedPrecondition);
}

// ---- block files ------------------------------------------------------------

std::vector<std::pair<uint64_t, std::string>> ScanAll(const std::string& path) {
  std::vector<std::pair<uint64_t, std::string>> blocks;
  auto reader = BlockReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return blocks;
  std::string payload;
  for (;;) {
    uint64_t offset = reader->offset();
    auto more = reader->Next(&payload);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    blocks.emplace_back(offset, payload);
  }
  return blocks;
}

TEST(FileIoTest, BlockAppendReturnsOffsetsAcrossReopen) {
  std::string path = Join(FreshDir("file_io_offsets"), "blocks.bin");
  {
    auto file = BlockFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_EQ(file->Append("alpha").value(), 0u);
    EXPECT_EQ(file->Append("").value(), 8u + 5);
    EXPECT_EQ(file->Append("gamma!").value(), 8u + 5 + 8);
  }
  EXPECT_EQ(fs::file_size(path), 3 * 8u + 5 + 6);
  // Reopening keeps the blocks and appends after them.
  auto file = BlockFile::Open(path);
  ASSERT_TRUE(file.ok());
  uint64_t next = file->Append("delta").value();
  EXPECT_EQ(next, 3 * 8u + 5 + 6);

  std::vector<std::pair<uint64_t, std::string>> expected = {
      {0, "alpha"}, {13, ""}, {21, "gamma!"}, {next, "delta"}};
  EXPECT_EQ(ScanAll(path), expected);
}

TEST(FileIoTest, ReadAtInterleavesWithAppend) {
  std::string path = Join(FreshDir("file_io_read_at"), "blocks.bin");
  auto file = BlockFile::Open(path);
  ASSERT_TRUE(file.ok());
  std::vector<std::pair<uint64_t, std::string>> blocks;
  for (std::string payload :
       {std::string("one"), std::string(100000, 'b'), std::string("three")}) {
    uint64_t offset = file->Append(payload).value();
    blocks.emplace_back(offset, payload);
    // A read between appends must not misplace the next append.
    std::string first;
    ASSERT_TRUE(file->ReadAt(0, &first).ok());
    EXPECT_EQ(first, "one");
  }
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    std::string payload;
    ASSERT_TRUE(file->ReadAt(it->first, &payload).ok());
    EXPECT_EQ(payload, it->second);
  }
  EXPECT_EQ(ScanAll(path), blocks);

  // No block at the end of the file or past it.
  uint64_t end = fs::file_size(path);
  std::string payload;
  EXPECT_EQ(file->ReadAt(end, &payload).code(), StatusCode::kCorruption);
  EXPECT_EQ(file->ReadAt(end + 100, &payload).code(), StatusCode::kCorruption);
}

TEST(FileIoTest, TornTailIsCorruption) {
  std::string path = Join(FreshDir("file_io_torn"), "blocks.bin");
  {
    auto file = BlockFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("complete").ok());
    ASSERT_TRUE(file->Append("0123456789").ok());
  }
  uint64_t second = 8 + 8;
  for (uint64_t cut : {second + 8 + 4, second + 3}) {  // payload, header
    fs::resize_file(path, cut);
    auto reader = BlockReader::Open(path);
    ASSERT_TRUE(reader.ok());
    std::string payload;
    ASSERT_TRUE(reader->Next(&payload).value());
    EXPECT_EQ(payload, "complete");
    auto torn = reader->Next(&payload);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);

    auto file = BlockFile::Open(path);
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(file->ReadAt(second, &payload).code(), StatusCode::kCorruption);
  }
}

TEST(FileIoTest, LockedBlockFileExcludesOtherHandles) {
  std::string dir = FreshDir("file_io_lock");
  std::string path = Join(dir, "repo.bin");
  // Locking a missing file fails and creates nothing.
  EXPECT_EQ(BlockFile::OpenLocked(path).status().code(), StatusCode::kIoError);
  EXPECT_FALSE(fs::exists(path));

  auto created = BlockFile::CreateLocked(path, "header");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->Append("next").value(), 8u + 6);
  EXPECT_EQ(BlockFile::CreateLocked(path, "other").status().code(),
            StatusCode::kAlreadyExists);
  // A second handle in the same process is refused like another process.
  EXPECT_EQ(BlockFile::OpenLocked(path).status().code(),
            StatusCode::kUnavailable);
  *created = BlockFile();  // closing the handle releases the lock
  auto reopened = BlockFile::OpenLocked(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string payload;
  ASSERT_TRUE(reopened->ReadAt(0, &payload).ok());
  EXPECT_EQ(payload, "header");
  EXPECT_EQ(reopened->Append("last").value(), 2 * 8u + 6 + 4);
}

TEST(FileIoTest, FailedCreateLockedLeavesNoFile) {
  // A first append that fails (here: past the file-size limit) must not
  // leave a file behind that makes every later create AlreadyExists. The
  // limit is set in a child so this process keeps its own.
  std::string path = Join(FreshDir("file_io_create_fails"), "repo.bin");
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit = {4, 4};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    auto created = BlockFile::CreateLocked(path, "a header longer than 4");
    if (created.ok()) _exit(4);
    _exit(fs::exists(path) ? 5 : 0);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0)
      << "3: setrlimit failed, 4: create succeeded, 5: file left behind";
  auto created = BlockFile::CreateLocked(path, "a header longer than 4");
  EXPECT_TRUE(created.ok()) << created.status().ToString();
}

TEST(FileIoTest, CommitLogDropsOnlyAShortTail) {
  std::string path = Join(FreshDir("file_io_commit_log"), "repo.bin");
  // The last block's payload holds a run of zero bytes, which must not
  // pass for a whole (empty) block after a torn header.
  const std::string last_payload("second\0\0\0\0\0\0\0\0\0\0block", 21);
  auto rebuild = [&]() {
    fs::remove(path);
    auto file = BlockFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("first").ok());
    ASSERT_TRUE(file->Append(last_payload).ok());
  };
  const uint64_t second = 8 + 5;
  const uint64_t end = second + 8 + last_payload.size();
  auto open_log = [&path](std::vector<std::string>* seen) -> Result<BlockFile> {
    DBFA_ASSIGN_OR_RETURN(BlockFile file, BlockFile::OpenLocked(path));
    DBFA_RETURN_IF_ERROR(file.RecoverCommitted(
        [seen](uint64_t, const std::string& payload) {
          seen->push_back(payload);
          return Status::Ok();
        }));
    return file;
  };
  // Every cut inside the last block, header or payload, is a commit that
  // never happened: the earlier block survives and the file is truncated
  // to it before the next append.
  for (uint64_t cut = second + 1; cut < end; ++cut) {
    SCOPED_TRACE(
        StrFormat("cut at %llu", static_cast<unsigned long long>(cut)));
    rebuild();
    fs::resize_file(path, cut);
    EXPECT_EQ(ScanCommitLog(path, [](uint64_t, const std::string&) {
                return Status::Ok();
              }).value(),
              second);
    EXPECT_EQ(fs::file_size(path), cut);  // scanning changes nothing
    std::vector<std::string> seen;
    auto log = open_log(&seen);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(seen, std::vector<std::string>{"first"});
    EXPECT_EQ(fs::file_size(path), second);
    EXPECT_EQ(log->Append("again").value(), second);
    std::vector<std::pair<uint64_t, std::string>> expected = {
        {0, "first"}, {second, "again"}};
    EXPECT_EQ(ScanAll(path), expected);
  }
  // A complete block with a bad CRC is Corruption, first or last.
  for (uint64_t flip : {uint64_t{8 + 2}, second + 8 + 4}) {
    rebuild();
    FlipByte(path, static_cast<long>(flip));
    std::vector<std::string> seen;
    EXPECT_EQ(open_log(&seen).status().code(), StatusCode::kCorruption);
    EXPECT_EQ(fs::file_size(path), end);
  }
  // A flipped size bit that sends the first block past the end of file is
  // damage, not a torn append: the second block is still whole after it,
  // so nothing is truncated. In the last block the same flip is
  // indistinguishable from a torn append.
  rebuild();
  FlipByte(path, 1);
  std::vector<std::string> seen;
  EXPECT_EQ(open_log(&seen).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(fs::file_size(path), end);
  rebuild();
  FlipByte(path, static_cast<long>(second + 1));
  seen.clear();
  ASSERT_TRUE(open_log(&seen).ok());
  EXPECT_EQ(seen, std::vector<std::string>{"first"});
  EXPECT_EQ(fs::file_size(path), second);
}

TEST(FileIoTest, BitFlipIsCorruption) {
  std::string path = Join(FreshDir("file_io_bitflip"), "blocks.bin");
  {
    auto file = BlockFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("evidence bytes").ok());
  }
  FlipByte(path, 8 + 3);  // payload byte
  std::string payload;
  auto reader = BlockReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->Next(&payload).status().code(), StatusCode::kCorruption);
  auto file = BlockFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->ReadAt(0, &payload).code(), StatusCode::kCorruption);

  // A flipped high bit in the size field is an implausible size, rejected
  // before any allocation.
  FlipByte(path, 8 + 3);  // restore the payload
  FlipByte(path, 3);
  auto oversized = BlockReader::Open(path).value().Next(&payload);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kCorruption);
}

TEST(FileIoTest, BlockFileOpenErrorsAreIoErrors) {
  std::string dir = FreshDir("file_io_block_errors");
  EXPECT_EQ(BlockFile::Open(dir).status().code(), StatusCode::kIoError);
  EXPECT_EQ(BlockReader::Open(Join(dir, "missing")).status().code(),
            StatusCode::kIoError);
  std::string payload;
  auto reader = BlockReader::Open(dir);  // opening a directory for reading
  if (reader.ok()) {                     // succeeds; reading it must not
    EXPECT_EQ(reader->Next(&payload).status().code(), StatusCode::kIoError);
  }
}

TEST(FileIoTest, FailedBlockAppendPoisonsLaterAppends) {
  if (!fs::exists(kDevFull)) GTEST_SKIP() << "no /dev/full";
  auto file = BlockFile::Open(kDevFull);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->Append("block").status().code(), StatusCode::kIoError);
  // The tail is unknown now, so offsets could no longer be trusted.
  EXPECT_EQ(file->Append("next").status().code(), StatusCode::kIoError);
}

// ---- callers: an unreadable path is an IoError, not an empty result ---------

TEST(FileIoCallersTest, LoadersReportUnreadablePaths) {
  std::string dir = FreshDir("file_io_loaders");
  // Each would otherwise parse a directory as empty text: an audit log with
  // no entries (every carved change unattributed), a config missing its
  // dialect, a sidecar missing its keys.
  auto log = AuditLog::LoadFrom(dir);
  EXPECT_EQ(log.status().code(), StatusCode::kIoError);
  auto config = LoadConfig(dir);
  EXPECT_EQ(config.status().code(), StatusCode::kIoError)
      << config.status().ToString();
  auto entry = LoadCorpusEntry(dir);
  EXPECT_EQ(entry.status().code(), StatusCode::kIoError)
      << entry.status().ToString();
}

TEST(FileIoCallersTest, LoadImageOfDirectoryIsIoError) {
  // ftell on a directory stream reports LLONG_MAX; the image loader must
  // not size an allocation from it.
  auto image = LoadImage(FreshDir("file_io_load_image"));
  EXPECT_EQ(image.status().code(), StatusCode::kIoError);
}

// ---- callers: a failing device is an IoError, not a silent success ----------

TEST(FileIoCallersTest, SaversReportFailedWrites) {
  if (!fs::exists(kDevFull)) GTEST_SKIP() << "no /dev/full";
  Bytes image(64, 0xab);
  EXPECT_EQ(SaveImage(kDevFull, ByteView(image)).code(), StatusCode::kIoError);

  CarverConfig config;
  config.params = GetDialect("postgres_like").value();
  EXPECT_EQ(SaveConfig(kDevFull, config).code(), StatusCode::kIoError);

  AuditLog log;
  log.Append(1, "INSERT INTO t VALUES (1)");
  EXPECT_EQ(log.SaveTo(kDevFull).code(), StatusCode::kIoError);

  // The corpus sidecar lands on the full device; the image next to it is
  // an ordinary file.
  std::string dir = FreshDir("file_io_corpus_full");
  CorpusEntry entry;
  entry.name = "full";
  entry.dialect = "postgres_like";
  fs::create_symlink(kDevFull, fs::path(dir) / "full.expect");
  EXPECT_EQ(SaveCorpusEntry(dir, entry, ByteView(image)).code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace dbfa
