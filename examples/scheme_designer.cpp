// Scheme-designer tool: classify database schemes against every class the
// paper studies. With a file argument, reads the text format
// (`relation NAME ( ATTRS ) keys ( K ) [ ( K ) ... ]` lines); without
// arguments, walks through the paper's worked examples.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/classify.h"
#include "diagnostics/render.h"
#include "io/text_format.h"

using namespace ird;

namespace {

struct NamedScheme {
  std::string title;
  DatabaseScheme scheme;
};

DatabaseScheme FromSpec(const char* spec) {
  Result<ParsedDatabase> parsed = ParseDatabaseText(spec);
  IRD_CHECK_MSG(parsed.ok(), "built-in example must parse");
  return parsed->scheme;
}

std::vector<NamedScheme> PaperExamples() {
  std::vector<NamedScheme> out;
  out.push_back({"Example 1, R (university; ind.-reducible, ctm)", FromSpec(R"(
relation R1 ( H R C ) keys ( H R )
relation R2 ( H T R ) keys ( H T ) ( H R )
relation R3 ( H T C ) keys ( H T )
relation R4 ( C S G ) keys ( C S )
relation R5 ( H S R ) keys ( H S )
)")});
  out.push_back({"Example 1, S (merged; independent)", FromSpec(R"(
relation S1 ( H R C T ) keys ( H R ) ( H T )
relation S2 ( C S G ) keys ( C S )
relation S3 ( H S R ) keys ( H S )
)")});
  out.push_back({"Example 2 (not algebraic-maintainable)", FromSpec(R"(
relation R1 ( A B ) keys ( A B )
relation R2 ( B C ) keys ( B )
relation R3 ( A C ) keys ( A )
)")});
  out.push_back({"Example 3 (key-equivalent triangle)", FromSpec(R"(
relation R1 ( A B ) keys ( A ) ( B )
relation R2 ( B C ) keys ( B ) ( C )
relation R3 ( A C ) keys ( A ) ( C )
)")});
  out.push_back({"Examples 4/5/7 (key-equivalent, split key BC)", FromSpec(R"(
relation R1 ( A B ) keys ( A )
relation R2 ( A C ) keys ( A )
relation R3 ( A E ) keys ( A ) ( E )
relation R4 ( E B ) keys ( E )
relation R5 ( E C ) keys ( E )
relation R6 ( B C D ) keys ( B C ) ( D )
relation R7 ( D A ) keys ( D ) ( A )
)")});
  out.push_back({"Example 8 (split key BC)", FromSpec(R"(
relation R1 ( A C ) keys ( A )
relation R2 ( A B ) keys ( A )
relation R3 ( A B C ) keys ( A ) ( B C )
relation R4 ( B C D ) keys ( B C ) ( D )
relation R5 ( A D ) keys ( A ) ( D )
)")});
  out.push_back({"Example 9 (split-free chain; ctm)", FromSpec(R"(
relation R1 ( A B ) keys ( A ) ( B )
relation R2 ( B C ) keys ( B ) ( C )
relation R3 ( C D ) keys ( C ) ( D )
relation R4 ( D E ) keys ( D ) ( E )
)")});
  out.push_back({"Examples 11/12 (independence-reducible, two blocks)",
                 FromSpec(R"(
relation R1 ( A B ) keys ( A ) ( B )
relation R2 ( B C ) keys ( B ) ( C )
relation R3 ( A C ) keys ( A ) ( C )
relation R4 ( A D ) keys ( A )
relation R5 ( D E F ) keys ( D )
relation R6 ( D E G ) keys ( D )
)")});
  out.push_back({"Example 13 (KEP input, three blocks)", FromSpec(R"(
relation R1 ( A B ) keys ( A B )
relation R2 ( C D ) keys ( C D )
relation R3 ( A B C ) keys ( A B )
relation R4 ( A B D ) keys ( A B )
relation R5 ( C D E ) keys ( C D ) ( E )
relation R6 ( E A ) keys ( E )
relation R7 ( E F ) keys ( E )
relation R8 ( F B ) keys ( F )
)")});
  return out;
}

void Report(const NamedScheme& named) {
  std::printf("==============================================\n");
  std::printf("%s\n", named.title.c_str());
  std::printf("----------------------------------------------\n");
  std::printf("%s", named.scheme.ToString().c_str());
  std::printf("\n%s\n", diagnostics::FormatSchemeReport(named.scheme).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    Result<ParsedDatabase> parsed = ParseDatabaseText(buffer.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    Report({argv[1], parsed->scheme});
    return 0;
  }
  for (const NamedScheme& named : PaperExamples()) {
    Report(named);
  }
  return 0;
}
