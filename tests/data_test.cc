#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/units.h"
#include "data/loader.h"
#include "data/shard.h"
#include "data/synthetic.h"
#include "data/tar.h"

namespace hivesim::data {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string TempDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "hivesim_test" /
                   name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- Tar ---

TEST(TarTest, RoundTripSingleFile) {
  std::stringstream ss;
  TarWriter w(ss);
  ASSERT_TRUE(w.AddFile("hello.txt", Bytes("hello world")).ok());
  ASSERT_TRUE(w.Finish().ok());

  TarReader r(ss);
  auto e = r.Next();
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->has_value());
  EXPECT_EQ((*e)->name, "hello.txt");
  EXPECT_EQ((*e)->data, Bytes("hello world"));
  auto end = r.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(TarTest, RoundTripManyFilesVariousSizes) {
  std::stringstream ss;
  TarWriter w(ss);
  // Sizes chosen to hit padding edge cases: 0, <512, ==512, >512.
  const std::vector<size_t> sizes = {0, 1, 511, 512, 513, 4096, 10000};
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::vector<uint8_t> data(sizes[i], static_cast<uint8_t>('a' + i));
    ASSERT_TRUE(w.AddFile("f" + std::to_string(i), data).ok());
  }
  ASSERT_TRUE(w.Finish().ok());

  TarReader r(ss);
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto e = r.Next();
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_TRUE(e->has_value());
    EXPECT_EQ((*e)->name, "f" + std::to_string(i));
    EXPECT_EQ((*e)->data.size(), sizes[i]);
    if (sizes[i] > 0) {
      EXPECT_EQ((*e)->data[0], 'a' + i);
    }
  }
  EXPECT_FALSE(r.Next()->has_value());
}

TEST(TarTest, ArchiveIsBlockAligned) {
  std::stringstream ss;
  TarWriter w(ss);
  ASSERT_TRUE(w.AddFile("x", Bytes("abc")).ok());
  ASSERT_TRUE(w.Finish().ok());
  // header(512) + padded data(512) + 2 terminator blocks(1024).
  EXPECT_EQ(w.bytes_written(), 2048u);
  EXPECT_EQ(ss.str().size(), 2048u);
}

TEST(TarTest, RejectsBadNames) {
  std::stringstream ss;
  TarWriter w(ss);
  EXPECT_FALSE(w.AddFile("", {}).ok());
  EXPECT_FALSE(w.AddFile(std::string(120, 'x'), {}).ok());
}

TEST(TarTest, WriteAfterFinishFails) {
  std::stringstream ss;
  TarWriter w(ss);
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(w.AddFile("x", {}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.Finish().code(), StatusCode::kFailedPrecondition);
}

TEST(TarTest, DetectsCorruptedChecksum) {
  std::stringstream ss;
  TarWriter w(ss);
  ASSERT_TRUE(w.AddFile("x", Bytes("data")).ok());
  ASSERT_TRUE(w.Finish().ok());
  std::string blob = ss.str();
  blob[0] ^= 0x7f;  // Flip a byte in the name field.
  std::stringstream corrupted(blob);
  TarReader r(corrupted);
  auto e = r.Next();
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
}

TEST(TarTest, DetectsTruncatedData) {
  std::stringstream ss;
  TarWriter w(ss);
  ASSERT_TRUE(w.AddFile("x", std::vector<uint8_t>(2000, 1)).ok());
  ASSERT_TRUE(w.Finish().ok());
  std::string blob = ss.str().substr(0, 900);  // Header + partial data.
  std::stringstream truncated(blob);
  TarReader r(truncated);
  auto e = r.Next();
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
}

TEST(TarTest, ToleratesCleanEofWithoutTerminator) {
  std::stringstream ss;
  TarWriter w(ss);
  ASSERT_TRUE(w.AddFile("x", Bytes("abc")).ok());
  ASSERT_TRUE(w.Finish().ok());
  // Drop the two terminator blocks.
  std::string blob = ss.str().substr(0, 1024);
  std::stringstream no_term(blob);
  TarReader r(no_term);
  auto e = r.Next();
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->has_value());
  auto end = r.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

// Rewrites the ustar header at `offset` of `blob` with a new size and
// typeflag plus a matching checksum, so the reader accepts the header and
// reaches the field under test.
void PatchHeader(std::string* blob, size_t offset, uint64_t size,
                 char typeflag) {
  char* h = blob->data() + offset;
  std::snprintf(h + 124, 12, "%011llo", static_cast<unsigned long long>(size));
  h[156] = typeflag;
  std::memset(h + 148, ' ', 8);
  unsigned sum = 0;
  for (size_t i = 0; i < 512; ++i) sum += static_cast<unsigned char>(h[i]);
  std::snprintf(h + 148, 8, "%06o", sum);
  h[155] = ' ';
}

// Caps this process's address space at its current size plus `headroom`,
// so an allocation of the size a header merely claims fails loudly. The
// sanitizers reserve terabytes of shadow memory up front, so under them
// the cap is left off and the test checks the status alone.
void CapAddressSpace(size_t headroom) {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  if (statm >> pages) {
    const rlim_t cap =
        static_cast<rlim_t>(pages) * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
        headroom;
    const rlimit limit{cap, cap};
    setrlimit(RLIMIT_AS, &limit);
  }
#else
  (void)headroom;
#endif
}

TEST(TarTest, HugeClaimedEntryIsCorruptionNotAllocation) {
  // A 1.5 KiB archive whose valid header claims a 1 GiB entry: the reader
  // must report the truncation after reading what is there, without ever
  // allocating the claimed size (run under a 256 MiB address-space cap).
  std::stringstream ss;
  TarWriter w(ss);
  ASSERT_TRUE(w.AddFile("x", std::vector<uint8_t>(1000, 7)).ok());
  std::string blob = ss.str();
  PatchHeader(&blob, 0, uint64_t{1} << 30, '0');
  EXPECT_EXIT(
      {
        CapAddressSpace(size_t{256} << 20);
        std::stringstream in(blob);
        TarReader r(in);
        auto e = r.Next();
        std::exit(!e.ok() && e.status().code() == StatusCode::kCorruption
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(TarTest, LongRunOfNonRegularEntriesIsSkippedIteratively) {
  // 20k directory entries ahead of one file: skipping them by recursion
  // would need far more stack than a thread has.
  std::stringstream dir_ss;
  TarWriter dir_writer(dir_ss);
  ASSERT_TRUE(dir_writer.AddFile("d/", {}).ok());
  std::string dir = dir_ss.str();
  PatchHeader(&dir, 0, 0, '5');
  std::stringstream file_ss;
  TarWriter file_writer(file_ss);
  ASSERT_TRUE(file_writer.AddFile("x", Bytes("payload")).ok());
  ASSERT_TRUE(file_writer.Finish().ok());

  constexpr int kDirs = 20000;
  std::string blob;
  blob.reserve(dir.size() * kDirs + file_ss.str().size());
  for (int i = 0; i < kDirs; ++i) blob += dir;
  blob += file_ss.str();
  std::stringstream in(std::move(blob));
  TarReader r(in);
  auto e = r.Next();
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ASSERT_TRUE(e->has_value());
  EXPECT_EQ((*e)->name, "x");
  EXPECT_EQ((*e)->data, Bytes("payload"));
  auto end = r.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(TarTest, RejectsNonTarInput) {
  std::stringstream ss("this is definitely not a tar archive, not at all..."
                       "padding padding padding padding padding padding pad"
                       + std::string(512, 'z'));
  TarReader r(ss);
  auto e = r.Next();
  EXPECT_FALSE(e.ok());
}

// --- Shards (WebDataset layout) ---

TEST(ShardTest, SplitKeyExt) {
  auto [k1, e1] = SplitKeyExt("000123.jpg");
  EXPECT_EQ(k1, "000123");
  EXPECT_EQ(e1, "jpg");
  auto [k2, e2] = SplitKeyExt("dir/x.seg.png");
  EXPECT_EQ(k2, "x");
  EXPECT_EQ(e2, "seg.png");
  auto [k3, e3] = SplitKeyExt("noext");
  EXPECT_EQ(k3, "noext");
  EXPECT_EQ(e3, "");
}

TEST(ShardTest, WriteReadSamplesRoundTrip) {
  const std::string dir = TempDir("shard_rt");
  const std::string path = dir + "/s.tar";
  {
    ShardWriter w(path);
    ASSERT_TRUE(w.status().ok());
    Sample a;
    a.key = "00000001";
    a.fields["jpg"] = Bytes("imagebytes");
    a.fields["cls"] = Bytes("42");
    ASSERT_TRUE(w.Write(a).ok());
    Sample b;
    b.key = "00000002";
    b.fields["jpg"] = Bytes("other");
    b.fields["cls"] = Bytes("7");
    ASSERT_TRUE(w.Write(b).ok());
    EXPECT_EQ(w.samples_written(), 2);
    ASSERT_TRUE(w.Close().ok());
  }
  ShardReader r(path);
  ASSERT_TRUE(r.status().ok());
  auto a = r.Next();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->has_value());
  EXPECT_EQ((*a)->key, "00000001");
  EXPECT_EQ((*a)->fields.at("jpg"), Bytes("imagebytes"));
  EXPECT_EQ((*a)->fields.at("cls"), Bytes("42"));
  EXPECT_EQ((*a)->TotalBytes(), 12u);
  auto b = r.Next();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->has_value());
  EXPECT_EQ((*b)->key, "00000002");
  auto end = r.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(ShardTest, RejectsInvalidSamples) {
  const std::string dir = TempDir("shard_invalid");
  ShardWriter w(dir + "/s.tar");
  ASSERT_TRUE(w.status().ok());
  Sample no_key;
  no_key.fields["jpg"] = Bytes("x");
  EXPECT_EQ(w.Write(no_key).code(), StatusCode::kInvalidArgument);
  Sample no_fields;
  no_fields.key = "k";
  EXPECT_EQ(w.Write(no_fields).code(), StatusCode::kInvalidArgument);
}

TEST(ShardTest, DuplicateFieldIsCorruption) {
  const std::string dir = TempDir("shard_dup");
  const std::string path = dir + "/s.tar";
  {
    std::ofstream f(path, std::ios::binary);
    TarWriter w(f);
    ASSERT_TRUE(w.AddFile("k.jpg", Bytes("a")).ok());
    ASSERT_TRUE(w.AddFile("k.jpg", Bytes("b")).ok());
    ASSERT_TRUE(w.Finish().ok());
  }
  ShardReader r(path);
  auto s = r.Next();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCorruption);
}

TEST(ShardTest, MissingFileIsIOError) {
  ShardReader r("/nonexistent/path/s.tar");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(r.Next().ok());
}

// --- Synthetic datasets ---

TEST(SyntheticTest, GeneratesRequestedShardsAndSamples) {
  const std::string dir = TempDir("synth_cv");
  SyntheticDatasetConfig config;
  config.domain = models::Domain::kCV;
  config.num_samples = 25;
  config.samples_per_shard = 10;
  config.sample_bytes = 1024;  // Keep the test fast.
  auto manifest = GenerateSyntheticDataset(dir, config);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->shard_paths.size(), 3u);  // 10 + 10 + 5.
  EXPECT_EQ(manifest->num_samples, 25);
  EXPECT_GT(manifest->total_bytes, 25 * 1024u);

  // Every shard is readable and CV samples carry jpg + cls.
  int count = 0;
  for (const auto& path : manifest->shard_paths) {
    ShardReader r(path);
    ASSERT_TRUE(r.status().ok());
    while (true) {
      auto s = r.Next();
      ASSERT_TRUE(s.ok());
      if (!s->has_value()) break;
      EXPECT_TRUE((*s)->fields.count("jpg"));
      EXPECT_TRUE((*s)->fields.count("cls"));
      ++count;
    }
  }
  EXPECT_EQ(count, 25);
}

TEST(SyntheticTest, AsrSamplesHaveSpectrogramAndTranscript) {
  const std::string dir = TempDir("synth_asr");
  SyntheticDatasetConfig config;
  config.domain = models::Domain::kASR;
  config.num_samples = 3;
  config.samples_per_shard = 3;
  config.sample_bytes = 2048;
  auto manifest = GenerateSyntheticDataset(dir, config);
  ASSERT_TRUE(manifest.ok());
  ShardReader r(manifest->shard_paths[0]);
  auto s = r.Next();
  ASSERT_TRUE(s.ok() && s->has_value());
  EXPECT_TRUE((*s)->fields.count("mel"));
  EXPECT_TRUE((*s)->fields.count("txt"));
  EXPECT_GT((*s)->fields.at("mel").size(), (*s)->fields.at("txt").size());
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticDatasetConfig config;
  config.domain = models::Domain::kNLP;
  config.num_samples = 5;
  config.samples_per_shard = 5;
  config.sample_bytes = 512;
  config.seed = 99;
  auto a = GenerateSyntheticDataset(TempDir("synth_a"), config);
  auto b = GenerateSyntheticDataset(TempDir("synth_b"), config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->total_bytes, b->total_bytes);
}

TEST(SyntheticTest, RejectsNonPositiveCounts) {
  SyntheticDatasetConfig config;
  config.num_samples = 0;
  EXPECT_FALSE(GenerateSyntheticDataset(TempDir("synth_bad"), config).ok());
}

// --- ShardDataset (multi-epoch loader) ---

TEST(LoaderTest, CyclesThroughEpochs) {
  const std::string dir = TempDir("loader_cycle");
  SyntheticDatasetConfig config;
  config.domain = models::Domain::kNLP;
  config.num_samples = 6;
  config.samples_per_shard = 3;
  config.sample_bytes = 256;
  auto manifest = GenerateSyntheticDataset(dir, config);
  ASSERT_TRUE(manifest.ok());

  auto ds = ShardDataset::Open(manifest->shard_paths);
  ASSERT_TRUE(ds.ok());
  for (int i = 0; i < 15; ++i) {
    auto s = (*ds)->Next();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
  }
  EXPECT_EQ((*ds)->samples_read(), 15u);
  EXPECT_EQ((*ds)->epoch(), 2);  // 6 + 6 + 3 samples.
}

TEST(LoaderTest, ShuffleKeepsAllSamples) {
  const std::string dir = TempDir("loader_shuffle");
  SyntheticDatasetConfig config;
  config.domain = models::Domain::kCV;
  config.num_samples = 12;
  config.samples_per_shard = 4;
  config.sample_bytes = 128;
  auto manifest = GenerateSyntheticDataset(dir, config);
  ASSERT_TRUE(manifest.ok());
  auto ds = ShardDataset::Open(manifest->shard_paths, /*shuffle=*/true, 7);
  ASSERT_TRUE(ds.ok());
  std::set<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    auto s = (*ds)->Next();
    ASSERT_TRUE(s.ok());
    keys.insert(s->key);
  }
  EXPECT_EQ(keys.size(), 12u);
}

TEST(LoaderTest, EmptyShardListRejected) {
  EXPECT_FALSE(ShardDataset::Open({}).ok());
}

// --- Dataset profiles & ingress metering ---

TEST(DatasetProfileTest, PerDomainProfiles) {
  const auto& cv = DatasetFor(models::ModelId::kConvNextLarge);
  EXPECT_EQ(cv.name, "imagenet-1k");
  EXPECT_NEAR(cv.sample_bytes, 110 * kKB, 1.0);
  const auto& nlp = DatasetFor(models::ModelId::kRobertaXlm);
  EXPECT_EQ(nlp.name, "wikipedia-03-22");
  const auto& asr = DatasetFor(models::ModelId::kWhisperSmall);
  EXPECT_EQ(asr.name, "commonvoice-mel");
  // Images cost more wire bytes than text (Fig. 11 discussion).
  EXPECT_GT(cv.sample_bytes, nlp.sample_bytes);
}

TEST(IngressMeterTest, StreamsThenCaches) {
  StreamingIngressMeter meter(/*dataset_share_samples=*/1000,
                              /*sample_bytes=*/100);
  meter.OnSamplesConsumed(300);
  EXPECT_DOUBLE_EQ(meter.StreamedBytes(), 30000);
  EXPECT_FALSE(meter.FullyCached());
  meter.OnSamplesConsumed(900);  // Past the end: re-reads are cached.
  EXPECT_DOUBLE_EQ(meter.StreamedBytes(), 100000);
  EXPECT_TRUE(meter.FullyCached());
  meter.OnSamplesConsumed(5000);
  EXPECT_DOUBLE_EQ(meter.StreamedBytes(), 100000);
}

}  // namespace
}  // namespace hivesim::data
