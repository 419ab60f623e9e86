// Tiny CSV reader/writer used to persist measured pattern tables
// (the paper publishes its measured patterns as data files) and to dump
// experiment series for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace talon {

/// A parsed CSV table: one row of column names plus data rows of doubles.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;

  /// Index of a named column; throws ParseError if absent.
  std::size_t column(const std::string& name) const;
};

/// Write a table. Every row must match the header width.
void write_csv(std::ostream& out, const CsvTable& table);

/// Parse a table; throws ParseError on ragged rows or non-numeric cells.
CsvTable read_csv(std::istream& in);

/// Convenience file wrappers; throw ParseError when the file cannot be
/// opened.
void write_csv_file(const std::string& path, const CsvTable& table);
CsvTable read_csv_file(const std::string& path);

}  // namespace talon
