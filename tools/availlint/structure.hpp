#pragma once
// availlint structural parser: recovers just enough C++ structure from the
// lexer's token stream for the semantic passes — class/struct scopes with
// their member-field declarations, and function definitions with their
// body token ranges.
//
// It is not a C++ parser.  It is a single linear scan with an explicit
// scope stack, exact about the constructs this repo actually writes
// (nested classes, template members, constructor initializer lists,
// brace-initialized members, trailing-underscore field convention) and
// deliberately lenient about everything else: a construct it cannot
// classify is skipped, never misread as a field.
//
// Consumer: hot-alloc walks call edges between function bodies starting
// from the declared hot-path roster, and flags insertions into the
// node-container fields of the enclosing class.

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace availlint {

struct FieldInfo {
  std::string name;
  int line = 0;          // declaration line (1-based)
  // Declared type is a node-per-element container (map/set/list and the
  // unordered_* family): insertion allocates on every call.
  bool node_container = false;
  // Subset of node_container whose operator[] default-inserts.
  bool map_like = false;
};

struct ClassInfo {
  std::string name;  // unqualified
  int line = 0;      // line of the class/struct keyword
  std::vector<FieldInfo> fields;
};

struct FunctionDef {
  std::string class_name;  // enclosing/qualifying class, "" for free fns
  std::string name;        // bare function name
  int line = 0;
  // Token index range of the body *contents* (between the braces),
  // half-open over LexedFile::tokens.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

struct FileStructure {
  std::vector<ClassInfo> classes;
  std::vector<FunctionDef> functions;
};

FileStructure parse_structure(const LexedFile& lex);

}  // namespace availlint
