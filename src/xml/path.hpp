// Slash-path queries over XML documents.
//
// Grammar (a pragmatic XPath subset — enough for matchlet rules and
// knowledge-base probes):
//   path      := step ('/' step)* ('/@' attr)?
//   step      := name | '*' | name '[' pred ']'
//   pred      := attr '=' 'value'         (attribute equality)
//
// Examples:
//   "event/location/lat"            — text of nested element
//   "event/@type"                   — attribute of root-relative child
//   "menu/item[kind=icecream]/price"
//   "*/temperature"                 — wildcard step
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "xml/xml.hpp"

namespace aa::xml {

class Path {
 public:
  /// Compiles a path expression; invalid syntax yields an error.
  static Result<Path> compile(std::string_view expr);

  /// All elements matched by the element steps (ignores a trailing
  /// attribute selector).  `root` itself must match the first step.
  std::vector<const Element*> find_all(const Element& root) const;
  const Element* find_first(const Element& root) const;

  /// Evaluates to a string: the selected attribute value, or the text of
  /// the first matched element.  nullopt when nothing matches.
  std::optional<std::string> value(const Element& root) const;

 private:
  struct Step {
    std::string name;  // "*" = wildcard
    std::string pred_attr;
    std::string pred_value;
    bool has_pred = false;

    bool matches(const Element& e) const;
  };

  std::vector<Step> steps_;
  std::string attr_;  // trailing @attr, empty if none
};

/// One-shot convenience: compile + evaluate; nullopt on bad syntax too.
std::optional<std::string> eval_path(const Element& root, std::string_view expr);

}  // namespace aa::xml
