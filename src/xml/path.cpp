#include "xml/path.hpp"

namespace aa::xml {

bool Path::Step::matches(const Element& e) const {
  if (name != "*" && e.name() != name) return false;
  if (has_pred) {
    const auto v = e.attribute(pred_attr);
    if (!v || *v != pred_value) return false;
  }
  return true;
}

Result<Path> Path::compile(std::string_view expr) {
  Path path;
  std::size_t pos = 0;
  if (expr.empty()) return Status(Code::kInvalidArgument, "empty path");
  while (pos < expr.size()) {
    std::size_t slash = expr.find('/', pos);
    std::string_view part =
        (slash == std::string_view::npos) ? expr.substr(pos) : expr.substr(pos, slash - pos);
    pos = (slash == std::string_view::npos) ? expr.size() : slash + 1;

    if (part.empty()) return Status(Code::kInvalidArgument, "empty path step");
    if (part[0] == '@') {
      if (pos < expr.size()) {
        return Status(Code::kInvalidArgument, "attribute selector must be last");
      }
      path.attr_ = std::string(part.substr(1));
      if (path.attr_.empty()) return Status(Code::kInvalidArgument, "empty attribute name");
      break;
    }

    Step step;
    const auto bracket = part.find('[');
    if (bracket != std::string_view::npos) {
      if (part.back() != ']') return Status(Code::kInvalidArgument, "unterminated predicate");
      step.name = std::string(part.substr(0, bracket));
      const std::string_view pred = part.substr(bracket + 1, part.size() - bracket - 2);
      const auto eq = pred.find('=');
      if (eq == std::string_view::npos) {
        return Status(Code::kInvalidArgument, "predicate must be attr=value");
      }
      step.has_pred = true;
      step.pred_attr = std::string(pred.substr(0, eq));
      step.pred_value = std::string(pred.substr(eq + 1));
    } else {
      step.name = std::string(part);
    }
    if (step.name.empty()) return Status(Code::kInvalidArgument, "empty step name");
    path.steps_.push_back(std::move(step));
  }
  if (path.steps_.empty()) return Status(Code::kInvalidArgument, "path has no element steps");
  return path;
}

std::vector<const Element*> Path::find_all(const Element& root) const {
  std::vector<const Element*> frontier;
  if (steps_[0].matches(root)) frontier.push_back(&root);
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    std::vector<const Element*> next;
    for (const Element* e : frontier) {
      for (const Element* kid : e->child_elements()) {
        if (steps_[i].matches(*kid)) next.push_back(kid);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

const Element* Path::find_first(const Element& root) const {
  auto all = find_all(root);
  return all.empty() ? nullptr : all.front();
}

std::optional<std::string> Path::value(const Element& root) const {
  const Element* e = find_first(root);
  if (e == nullptr) return std::nullopt;
  if (!attr_.empty()) return e->attribute(attr_);
  return e->text();
}

std::optional<std::string> eval_path(const Element& root, std::string_view expr) {
  auto path = Path::compile(expr);
  if (!path.is_ok()) return std::nullopt;
  return path.value().value(root);
}

}  // namespace aa::xml
