#include "cli/csv.h"

#include <exception>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/format_util.h"
#include "common/log.h"

namespace rit::cli {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), columns_(header.size()) {
  RIT_CHECK(!header.empty());
  add_row(header);
}

CsvWriter::~CsvWriter() {
  try {
    close();
  } catch (const std::exception& e) {
    // A destructor must not throw; surface the failure instead of
    // swallowing it silently. Callers that care should close() explicitly.
    log::emit(log::Level::kError,
              "CSV write to '" + path_ + "' failed: " + e.what());
  }
}

std::string csv_quote(const std::string& cell) {
  // A lone '\r' needs quoting too: RFC 4180 row separators are CRLF, so an
  // unquoted carriage return splits the row for any compliant reader.
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  RIT_CHECK_MSG(!closed_, "CSV file already closed: " << path_);
  RIT_CHECK_MSG(cells.size() == columns_,
                "CSV row has " << cells.size() << " cells, header has "
                               << columns_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) buffer_ += ',';
    buffer_ += csv_quote(cells[i]);
  }
  buffer_ += '\n';
}

void CsvWriter::add_numeric_row(const std::vector<double>& cells,
                                int precision) {
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (double c : cells) row.push_back(format_double(c, precision));
  add_row(row);
}

void CsvWriter::close() {
  if (closed_) return;
  rit::write_file_atomic(path_, buffer_);
  closed_ = true;
}

}  // namespace rit::cli
