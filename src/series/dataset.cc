#include "src/series/dataset.h"

#include <cstring>

namespace coconut {

Status WriteDataset(const std::string& path, SeriesGenerator* gen,
                    size_t count) {
  BufferedWriter writer;
  COCONUT_RETURN_IF_ERROR(writer.Open(path));
  Series buf(gen->length());
  for (size_t i = 0; i < count; ++i) {
    gen->Next(buf.data());
    COCONUT_RETURN_IF_ERROR(
        writer.Write(buf.data(), buf.size() * sizeof(Value)));
  }
  return writer.Finish();
}

Status AppendToDataset(const std::string& path,
                       const std::vector<Series>& batch) {
  std::unique_ptr<WritableFile> file;
  COCONUT_RETURN_IF_ERROR(WritableFile::OpenForAppend(path, &file));
  for (const Series& s : batch) {
    COCONUT_RETURN_IF_ERROR(file->Append(s.data(), s.size() * sizeof(Value)));
  }
  return file->Close();
}

Status RawSeriesFile::Open(const std::string& path, size_t length,
                           std::unique_ptr<RawSeriesFile>* out) {
  if (length == 0) {
    return Status::InvalidArgument("series length must be positive");
  }
  std::unique_ptr<RandomAccessFile> file;
  COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(path, &file));
  const uint64_t bytes = file->size();
  const uint64_t series_bytes = length * sizeof(Value);
  if (bytes % series_bytes != 0) {
    return Status::Corruption("dataset file " + path +
                              " is not a multiple of the series size");
  }
  out->reset(new RawSeriesFile(std::move(file), length, bytes / series_bytes));
  return Status::OK();
}

Status RawSeriesFile::ReadAt(uint64_t offset, Value* out) {
  if (offset % sizeof(Value) != 0 || offset + series_bytes() > size_bytes()) {
    return Status::InvalidArgument("bad series offset");
  }
  return file_->Read(offset, series_bytes(), out);
}

Status RawSeriesFile::ReadRange(uint64_t first, uint64_t n, Value* out) {
  if (first > count_ || n > count_ - first) {
    return Status::InvalidArgument("series range past the end of the file");
  }
  return file_->Read(first * series_bytes(), n * series_bytes(), out);
}

Status RawSeriesFile::LoadAll(size_t budget_bytes, std::vector<Value>* out) {
  if (size_bytes() > budget_bytes) {
    return Status::InvalidArgument("raw file exceeds memory budget");
  }
  out->resize(size_bytes() / sizeof(Value));
  return file_->Read(0, size_bytes(), out->data());
}

Status DatasetScanner::Open(const std::string& path, size_t length) {
  if (length == 0) {
    return Status::InvalidArgument("series length must be positive");
  }
  length_ = length;
  COCONUT_RETURN_IF_ERROR(reader_.Open(path));
  const uint64_t series_bytes = length * sizeof(Value);
  if (reader_.file_size() % series_bytes != 0) {
    return Status::Corruption("dataset file " + path +
                              " is not a multiple of the series size");
  }
  count_ = reader_.file_size() / series_bytes;
  next_index_ = 0;
  return Status::OK();
}

bool DatasetScanner::Next(Value* out, Status* status) {
  if (next_index_ >= count_) {
    *status = Status::OK();
    return false;
  }
  *status = reader_.Read(out, length_ * sizeof(Value));
  if (!status->ok()) return false;
  ++next_index_;
  return true;
}

}  // namespace coconut
