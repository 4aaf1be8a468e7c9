// lint-fixture-path: src/engine/example.hpp
// lint-expect: nodiscard
// A report-returning API without [[nodiscard]] and a Request class without
// the class-level attribute: both silently-droppable results.
#pragma once

namespace mpipred::engine {

struct EngineReport;

class Example {
 public:
  EngineReport report() const;
};

class Request {
 public:
  bool ready() const;
};

}  // namespace mpipred::engine
