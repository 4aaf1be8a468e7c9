#include "trace/csv.hpp"

#include <fstream>
#include <ostream>

#include "common/error.hpp"

namespace mpipred::trace {

void write_csv(std::ostream& os, const TraceStore& store) {
  // The versioned preamble lets re-ingestion (src/ingest/) recover the
  // exact rank count even when the top ranks logged no records.
  os << "# mpipred-trace: v1\n";
  os << "# nranks: " << store.nranks() << '\n';
  os << kNativeHeader << '\n';
  for (int rank = 0; rank < store.nranks(); ++rank) {
    for (const Level level : {Level::Logical, Level::Physical}) {
      for (const Record& rec : store.records(rank, level)) {
        os << rank << ',' << static_cast<int>(level) << ',' << rec.time.count() << ','
           << rec.sender << ',' << rec.bytes << ',' << static_cast<int>(rec.kind) << ','
           << static_cast<int>(rec.op) << '\n';
      }
    }
  }
}

void write_csv_file(const std::string& path, const TraceStore& store) {
  std::ofstream os(path);
  if (!os) {
    throw Error("trace csv: cannot open '" + path + "' for writing");
  }
  write_csv(os, store);
  if (!os) {
    throw Error("trace csv: write to '" + path + "' failed");
  }
}

}  // namespace mpipred::trace
