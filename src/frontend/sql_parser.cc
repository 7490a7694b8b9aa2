#include "frontend/sql_parser.h"

#include <cctype>
#include <cmath>
#include <limits>
#include <map>

#include "common/string_util.h"
#include "relational/block_table.h"
#include "relational/expression.h"

namespace raven::frontend {
namespace {

using ir::IrNode;
using ir::IrNodePtr;
using relational::CompareOp;
using relational::Expr;
using relational::ExprPtr;

enum class TokKind { kIdent, kNumber, kString, kOp, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // upper-cased for idents when keyword-checked
  std::string raw;    // original spelling
  double number = 0.0;
  std::size_t offset = 0;  // byte offset into the query text (diagnostics)
};

Result<std::vector<Token>> LexSql(const std::string& sql) {
  // DoS guard for the server path: a statement arriving over the wire can
  // be arbitrarily long; bail before tokenizing, not after.
  if (sql.size() > kMaxSqlLength) {
    return Status::ParseError(
        "statement length " + std::to_string(sql.size()) +
        " exceeds the " + std::to_string(kMaxSqlLength) + "-byte limit");
  }
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {  // SQL comment
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '@') {
      std::size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '_')) {
        ++j;
      }
      Token tok;
      tok.kind = TokKind::kIdent;
      tok.raw = sql.substr(i, j - i);
      tok.text = ToUpper(tok.raw);
      tok.offset = i;
      tokens.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      std::size_t j = i;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '.')) {
        ++j;
      }
      Token tok;
      tok.kind = TokKind::kNumber;
      tok.raw = sql.substr(i, j - i);
      try {
        tok.number = std::stod(tok.raw);
      } catch (const std::exception&) {
        // std::stod throws out_of_range past DBL_MAX (e.g. a 310-digit
        // literal); surface it as a diagnosable parse error instead.
        return Status::ParseError("numeric literal '" + tok.raw +
                                  "' out of range at byte offset " +
                                  std::to_string(i));
      }
      tok.offset = i;
      tokens.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      std::string value;
      while (j < n && sql[j] != '\'') {
        value.push_back(sql[j]);
        ++j;
      }
      if (j >= n) {
        return Status::ParseError("unterminated SQL string at byte offset " +
                                  std::to_string(i));
      }
      Token tok;
      tok.kind = TokKind::kString;
      tok.raw = value;
      tok.text = value;
      tok.offset = i;
      tokens.push_back(std::move(tok));
      i = j + 1;
      continue;
    }
    // Operators.
    static const char* kTwoChar[] = {"<>", "<=", ">=", "!="};
    bool matched = false;
    for (const char* op : kTwoChar) {
      if (i + 1 < n && sql[i] == op[0] && sql[i + 1] == op[1]) {
        tokens.push_back(Token{TokKind::kOp, op, op, 0.0, i});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    if (std::string("=<>(),.*+-/?").find(c) != std::string::npos) {
      tokens.push_back(
          Token{TokKind::kOp, std::string(1, c), std::string(1, c), 0.0, i});
      ++i;
      continue;
    }
    return Status::ParseError(std::string("unexpected SQL character '") + c +
                              "' at byte offset " + std::to_string(i));
  }
  Token end;
  end.offset = n;
  tokens.push_back(std::move(end));
  return tokens;
}

class SqlParser {
 public:
  SqlParser(std::vector<Token> tokens, const relational::Catalog& catalog,
            const ModelNodeBuilder& model_builder)
      : tokens_(std::move(tokens)), catalog_(catalog),
        model_builder_(model_builder) {}

  Result<ir::IrPlan> ParseStatement();

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    return tokens_[std::min(pos_ + ahead, tokens_.size() - 1)];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool IsKeyword(const char* kw) const {
    return Peek().kind == TokKind::kIdent && Peek().text == kw;
  }
  bool AcceptKeyword(const char* kw) {
    if (IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return ErrorHere("expected " + std::string(kw));
    }
    return Status::OK();
  }
  bool IsOp(const char* op) const {
    return Peek().kind == TokKind::kOp && Peek().text == op;
  }
  bool AcceptOp(const char* op) {
    if (IsOp(op)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectOp(const char* op) {
    if (!AcceptOp(op)) {
      return ErrorHere("expected '" + std::string(op) + "'");
    }
    return Status::OK();
  }

  /// Bounds combined expression + subquery nesting (DoS guard: recursive
  /// descent turns attacker-controlled nesting into stack depth). Callers
  /// pair a successful check with a DepthGuard on the same frame.
  Status CheckDepth() {
    if (nesting_depth_ >= kMaxNestingDepth) {
      return ErrorHere("expression nesting depth exceeds " +
                       std::to_string(kMaxNestingDepth));
    }
    return Status::OK();
  }

  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth(depth) { ++*depth; }
    ~DepthGuard() { --*depth; }
    int* depth;
  };

  /// Parse error anchored at the current token: reports what was expected,
  /// the offending token's spelling, and its byte offset in the query text,
  /// so generated-query harnesses (and humans) can pinpoint the failure.
  Status ErrorHere(const std::string& what) const {
    const Token& tok = Peek();
    const std::string got = tok.kind == TokKind::kEnd
                                ? std::string("<end of input>")
                                : "'" + tok.raw + "'";
    return Status::ParseError(what + ", got " + got + " at byte offset " +
                              std::to_string(tok.offset));
  }

  /// Parses `ident` or `alias.ident`, returning the unqualified name.
  Result<std::string> ParseColumnName();

  /// True when the upcoming tokens start an aggregate call (FUNC '(').
  bool AtAggregateFunc() const;
  /// Parses one `FUNC(col | *)` call with its default output name (alias
  /// handling is the caller's).
  Result<ir::AggregateItem> ParseAggregateCall();

  Result<IrNodePtr> ParseSelect();
  Result<IrNodePtr> ParseFromSource();
  Result<IrNodePtr> ParseTableRefChain();
  Result<IrNodePtr> ParseDataRef();

  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseTerm();
  Result<ExprPtr> ParseFactor();

  /// Resolves a categorical string literal against the column's dictionary.
  Result<double> ResolveStringLiteral(const std::string& column,
                                      const std::string& value) const;

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  const relational::Catalog& catalog_;
  const ModelNodeBuilder& model_builder_;
  std::map<std::string, IrNodePtr> ctes_;
  /// Current recursion depth across nested expressions and subqueries.
  int nesting_depth_ = 0;
  /// `?` placeholders seen so far; indices are assigned lexically.
  std::int64_t num_params_ = 0;
  /// Column context for string-literal resolution inside comparisons.
  std::string pending_column_;
  /// Non-null while parsing a HAVING predicate: aggregate calls in the
  /// predicate resolve to (or append hidden) items of this GROUP BY's
  /// aggregate list and read as their output columns. The group keys are
  /// carried along so hidden-item names dodge key-name collisions too.
  std::vector<ir::AggregateItem>* having_agg_items_ = nullptr;
  const std::vector<std::string>* having_group_keys_ = nullptr;
};

Result<std::string> SqlParser::ParseColumnName() {
  if (Peek().kind != TokKind::kIdent) {
    return ErrorHere("expected column name");
  }
  std::string name = Advance().raw;
  if (IsOp(".")) {
    ++pos_;
    if (Peek().kind != TokKind::kIdent) {
      return ErrorHere("expected column after qualifier");
    }
    name = Advance().raw;  // drop the alias qualifier
  }
  return name;
}

Result<double> SqlParser::ResolveStringLiteral(const std::string& column,
                                               const std::string& value) const {
  auto resolve = [&](const std::vector<std::string>& dict) -> Result<double> {
    for (std::size_t i = 0; i < dict.size(); ++i) {
      if (dict[i] == value) return static_cast<double>(i);
    }
    return Status::NotFound("value '" + value + "' not in dictionary of '" +
                            column + "'");
  };
  for (const auto& table_name : catalog_.TableNames()) {
    auto table = catalog_.GetTable(table_name);
    if (!table.ok()) continue;
    auto col = (*table)->GetColumn(column);
    if (!col.ok() || !(*col)->is_categorical()) continue;
    return resolve(*(*col)->dictionary);
  }
  // On-disk tables resolve string literals through their stored
  // dictionaries, same semantics as in-memory ones.
  for (const auto& table_name : catalog_.DiskTableNames()) {
    auto table = catalog_.GetDiskTable(table_name);
    if (!table.ok()) continue;
    const std::vector<std::string>* dict = (*table)->Dictionary(column);
    if (dict == nullptr) continue;
    return resolve(*dict);
  }
  return Status::NotFound("no categorical column '" + column +
                          "' found for string literal '" + value + "'");
}

Result<ExprPtr> SqlParser::ParseFactor() {
  RAVEN_RETURN_IF_ERROR(CheckDepth());
  DepthGuard depth(&nesting_depth_);
  if (having_agg_items_ != nullptr && AtAggregateFunc()) {
    // Aggregate call inside HAVING: reuse the select list's item when one
    // computes the same thing, otherwise append a hidden item to the GROUP
    // BY (it exists in the grouped schema but is not projected).
    RAVEN_ASSIGN_OR_RETURN(ir::AggregateItem item, ParseAggregateCall());
    for (const auto& existing : *having_agg_items_) {
      if (existing.func == item.func && existing.column == item.column) {
        return relational::Col(existing.output_name);
      }
    }
    std::string name = item.output_name;
    int suffix = 2;
    auto taken = [&](const std::string& candidate) {
      for (const auto& existing : *having_agg_items_) {
        if (existing.output_name == candidate) return true;
      }
      if (having_group_keys_ != nullptr) {
        // Group keys share the grouped output schema: a column literally
        // named like a default aggregate name (e.g. `count_v`) must not
        // collide with the hidden item.
        for (const auto& key : *having_group_keys_) {
          if (key == candidate) return true;
        }
      }
      return false;
    };
    while (taken(name)) {
      name = item.output_name + "_" + std::to_string(suffix++);
    }
    item.output_name = name;
    having_agg_items_->push_back(item);
    return relational::Col(item.output_name);
  }
  if (Peek().kind == TokKind::kNumber) {
    return relational::Lit(Advance().number);
  }
  if (Peek().kind == TokKind::kString) {
    // Bare strings are resolved against the pending comparison column.
    if (pending_column_.empty()) {
      return ErrorHere("string literal outside a column comparison");
    }
    RAVEN_ASSIGN_OR_RETURN(double code,
                           ResolveStringLiteral(pending_column_, Peek().raw));
    ++pos_;
    return relational::Lit(code);
  }
  if (AcceptOp("(")) {
    RAVEN_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
    RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
    return inner;
  }
  if (AcceptOp("?")) {
    // Prepared-statement placeholder, numbered by lexical position.
    return ExprPtr(std::make_unique<relational::ParamExpr>(num_params_++));
  }
  RAVEN_ASSIGN_OR_RETURN(std::string name, ParseColumnName());
  pending_column_ = name;
  return relational::Col(name);
}

Result<ExprPtr> SqlParser::ParseTerm() {
  RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs, ParseFactor());
  while (IsOp("*") || IsOp("/")) {
    const bool mul = Advance().text == "*";
    RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs, ParseFactor());
    lhs = std::make_unique<relational::ArithExpr>(
        mul ? relational::ArithOp::kMul : relational::ArithOp::kDiv,
        std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> SqlParser::ParseAdditive() {
  RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs, ParseTerm());
  while (IsOp("+") || IsOp("-")) {
    const bool add = Advance().text == "+";
    RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs, ParseTerm());
    lhs = std::make_unique<relational::ArithExpr>(
        add ? relational::ArithOp::kAdd : relational::ArithOp::kSub,
        std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> SqlParser::ParseComparison() {
  pending_column_.clear();
  RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  if (AcceptKeyword("IN")) {
    RAVEN_RETURN_IF_ERROR(ExpectOp("("));
    std::vector<double> values;
    while (!IsOp(")")) {
      if (Peek().kind == TokKind::kNumber) {
        values.push_back(Advance().number);
      } else if (Peek().kind == TokKind::kString) {
        RAVEN_ASSIGN_OR_RETURN(
            double code, ResolveStringLiteral(pending_column_, Peek().raw));
        ++pos_;
        values.push_back(code);
      } else {
        return ErrorHere("IN list expects literals");
      }
      if (!AcceptOp(",")) break;
    }
    if (values.empty()) {
      return ErrorHere("IN list expects at least one literal");
    }
    RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
    return ExprPtr(std::make_unique<relational::InExpr>(std::move(lhs),
                                                        std::move(values)));
  }
  static const std::pair<const char*, CompareOp> kOps[] = {
      {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"!=", CompareOp::kNe},
      {"<=", CompareOp::kLe}, {">=", CompareOp::kGe}, {"<", CompareOp::kLt},
      {">", CompareOp::kGt}};
  for (const auto& [text, op] : kOps) {
    if (AcceptOp(text)) {
      RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      pending_column_.clear();
      return relational::Cmp(op, std::move(lhs), std::move(rhs));
    }
  }
  return lhs;  // bare boolean expression
}

Result<ExprPtr> SqlParser::ParseNot() {
  if (AcceptKeyword("NOT")) {
    // NOT chains recurse without passing through ParseFactor, so they carry
    // their own depth guard.
    RAVEN_RETURN_IF_ERROR(CheckDepth());
    DepthGuard depth(&nesting_depth_);
    RAVEN_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return relational::Not(std::move(operand));
  }
  return ParseComparison();
}

Result<ExprPtr> SqlParser::ParseAnd() {
  RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (AcceptKeyword("AND")) {
    RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = relational::And(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> SqlParser::ParseOr() {
  RAVEN_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (AcceptKeyword("OR")) {
    RAVEN_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = relational::Or(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<IrNodePtr> SqlParser::ParseDataRef() {
  if (AcceptOp("(")) {
    RAVEN_ASSIGN_OR_RETURN(IrNodePtr subquery, ParseSelect());
    RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
    return subquery;
  }
  if (Peek().kind != TokKind::kIdent) {
    return ErrorHere("expected table or CTE name in DATA=");
  }
  const std::string name = Advance().raw;
  // Optional "AS alias".
  if (AcceptKeyword("AS") && Peek().kind == TokKind::kIdent) ++pos_;
  auto cte = ctes_.find(name);
  if (cte != ctes_.end()) return cte->second->Clone();
  if (catalog_.HasAnyTable(name)) return IrNode::TableScan(name);
  return Status::NotFound("DATA source '" + name +
                          "' is neither a CTE nor a table");
}

Result<IrNodePtr> SqlParser::ParseTableRefChain() {
  if (Peek().kind != TokKind::kIdent) {
    return ErrorHere("expected table name in FROM");
  }
  const std::string first = Advance().raw;
  IrNodePtr left;
  auto cte = ctes_.find(first);
  if (cte != ctes_.end()) {
    left = cte->second->Clone();
  } else if (catalog_.HasAnyTable(first)) {
    left = IrNode::TableScan(first);
  } else {
    return Status::NotFound("table '" + first + "' not found");
  }
  if (AcceptKeyword("AS") && Peek().kind == TokKind::kIdent) ++pos_;
  while (AcceptKeyword("JOIN")) {
    if (Peek().kind != TokKind::kIdent) {
      return ErrorHere("expected table after JOIN");
    }
    const std::string right_name = Advance().raw;
    if (!catalog_.HasAnyTable(right_name)) {
      return Status::NotFound("table '" + right_name + "' not found");
    }
    if (AcceptKeyword("AS") && Peek().kind == TokKind::kIdent) ++pos_;
    RAVEN_RETURN_IF_ERROR(ExpectKeyword("ON"));
    RAVEN_ASSIGN_OR_RETURN(std::string left_key, ParseColumnName());
    RAVEN_RETURN_IF_ERROR(ExpectOp("="));
    RAVEN_ASSIGN_OR_RETURN(std::string right_key, ParseColumnName());
    left = IrNode::Join(std::move(left), IrNode::TableScan(right_name),
                        left_key, right_key);
  }
  return left;
}

Result<IrNodePtr> SqlParser::ParseFromSource() {
  if (AcceptKeyword("PREDICT")) {
    RAVEN_RETURN_IF_ERROR(ExpectOp("("));
    RAVEN_RETURN_IF_ERROR(ExpectKeyword("MODEL"));
    RAVEN_RETURN_IF_ERROR(ExpectOp("="));
    std::string model_name;
    if (Peek().kind == TokKind::kString) {
      model_name = Advance().raw;
    } else if (Peek().kind == TokKind::kIdent &&
               Peek().raw.size() > 1 && Peek().raw[0] == '@') {
      // DECLARE @var support: @name refers to the stored model "name".
      model_name = Advance().raw.substr(1);
    } else {
      return ErrorHere("MODEL= expects a string or @variable");
    }
    RAVEN_RETURN_IF_ERROR(ExpectOp(","));
    RAVEN_RETURN_IF_ERROR(ExpectKeyword("DATA"));
    RAVEN_RETURN_IF_ERROR(ExpectOp("="));
    RAVEN_ASSIGN_OR_RETURN(IrNodePtr data, ParseDataRef());
    RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
    // Optional WITH(output_col [type]).
    std::string output_column = model_name + "_pred";
    if (AcceptKeyword("WITH")) {
      RAVEN_RETURN_IF_ERROR(ExpectOp("("));
      if (Peek().kind != TokKind::kIdent) {
        return ErrorHere("WITH(...) expects an output column name");
      }
      output_column = Advance().raw;
      while (Peek().kind == TokKind::kIdent) ++pos_;  // skip type tokens
      RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
    }
    if (AcceptKeyword("AS") && Peek().kind == TokKind::kIdent) ++pos_;
    return model_builder_(model_name, std::move(data), output_column);
  }
  if (AcceptOp("(")) {
    RAVEN_ASSIGN_OR_RETURN(IrNodePtr sub, ParseSelect());
    RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
    if (AcceptKeyword("AS") && Peek().kind == TokKind::kIdent) ++pos_;
    return sub;
  }
  return ParseTableRefChain();
}

bool SqlParser::AtAggregateFunc() const {
  if (Peek().kind != TokKind::kIdent) return false;
  const std::string& kw = Peek().text;
  if (kw != "COUNT" && kw != "SUM" && kw != "AVG" && kw != "MIN" &&
      kw != "MAX") {
    return false;
  }
  return Peek(1).kind == TokKind::kOp && Peek(1).text == "(";
}

Result<ir::AggregateItem> SqlParser::ParseAggregateCall() {
  ir::AggregateItem item;
  const std::string func = Advance().text;
  if (func == "COUNT") item.func = ir::AggFunc::kCount;
  else if (func == "SUM") item.func = ir::AggFunc::kSum;
  else if (func == "AVG") item.func = ir::AggFunc::kAvg;
  else if (func == "MIN") item.func = ir::AggFunc::kMin;
  else item.func = ir::AggFunc::kMax;
  RAVEN_RETURN_IF_ERROR(ExpectOp("("));
  if (AcceptOp("*")) {
    if (item.func != ir::AggFunc::kCount) {
      return ErrorHere(func + "(*) is not supported");
    }
  } else {
    RAVEN_ASSIGN_OR_RETURN(item.column, ParseColumnName());
  }
  RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
  item.output_name = ToLower(func);
  if (!item.column.empty()) item.output_name += "_" + item.column;
  return item;
}

Result<IrNodePtr> SqlParser::ParseSelect() {
  RAVEN_RETURN_IF_ERROR(CheckDepth());
  DepthGuard depth(&nesting_depth_);
  RAVEN_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  struct Item {
    ExprPtr expr;           // plain item (null when is_agg)
    ir::AggregateItem agg;  // aggregate item (when is_agg)
    bool is_agg = false;
    std::string name;       // output column name (alias-resolved)
  };
  bool star = false;
  std::vector<Item> items;
  bool any_agg = false;
  bool any_plain = false;
  if (AcceptOp("*")) {
    star = true;
  } else {
    while (true) {
      Item item;
      if (AtAggregateFunc()) {
        RAVEN_ASSIGN_OR_RETURN(item.agg, ParseAggregateCall());
        item.is_agg = true;
        any_agg = true;
        if (AcceptKeyword("AS")) {
          if (Peek().kind != TokKind::kIdent) {
            return ErrorHere("expected alias after AS");
          }
          item.agg.output_name = Advance().raw;
        }
        item.name = item.agg.output_name;
      } else {
        const std::size_t before = pos_;
        any_plain = true;
        RAVEN_ASSIGN_OR_RETURN(item.expr, ParseAdditive());
        if (AcceptKeyword("AS")) {
          if (Peek().kind != TokKind::kIdent) {
            return ErrorHere("expected alias after AS");
          }
          item.name = Advance().raw;
        } else if (item.expr->kind() == Expr::Kind::kColumnRef) {
          item.name =
              static_cast<relational::ColumnRefExpr*>(item.expr.get())->name();
        } else {
          item.name = "expr" + std::to_string(before);
        }
      }
      items.push_back(std::move(item));
      if (!AcceptOp(",")) break;
    }
  }
  RAVEN_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  RAVEN_ASSIGN_OR_RETURN(IrNodePtr source, ParseFromSource());
  if (AcceptKeyword("WHERE")) {
    RAVEN_ASSIGN_OR_RETURN(ExprPtr predicate, ParseOr());
    source = IrNode::Filter(std::move(source), std::move(predicate));
  }

  std::vector<std::string> group_keys;
  if (AcceptKeyword("GROUP")) {
    RAVEN_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      RAVEN_ASSIGN_OR_RETURN(std::string key, ParseColumnName());
      group_keys.push_back(std::move(key));
      if (!AcceptOp(",")) break;
    }
  }

  const bool grouped = !group_keys.empty();
  const bool aggregated = grouped || any_agg;
  /// Output column names of the select list, for ORDER BY ordinals (empty
  /// when SELECT *).
  std::vector<std::string> output_names;
  /// Wraps `node` in the select-list projection (select order, aliases
  /// applied; aggregate items read their grouped output column). Consumes
  /// `items`.
  auto project_items = [&items](IrNodePtr node) {
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (auto& item : items) {
      exprs.push_back(item.is_agg ? relational::Col(item.agg.output_name)
                                  : std::move(item.expr));
      names.push_back(item.name);
    }
    return IrNode::Project(std::move(node), std::move(exprs),
                           std::move(names));
  };

  if (grouped) {
    if (star) {
      return ErrorHere("SELECT * cannot be combined with GROUP BY");
    }
    // Plain select items must be bare references to group keys (grouped
    // output is one row per key tuple; anything else is ambiguous).
    std::vector<ir::AggregateItem> agg_items;
    for (const auto& item : items) {
      if (item.is_agg) {
        agg_items.push_back(item.agg);
        continue;
      }
      if (item.expr->kind() != Expr::Kind::kColumnRef) {
        return ErrorHere("non-aggregate select item '" + item.name +
                         "' must be a bare GROUP BY key column");
      }
      const std::string& column =
          static_cast<relational::ColumnRefExpr*>(item.expr.get())->name();
      bool is_key = false;
      for (const auto& key : group_keys) {
        if (key == column) {
          is_key = true;
          break;
        }
      }
      if (!is_key) {
        return ErrorHere("select item '" + column +
                         "' is neither aggregated nor a GROUP BY key");
      }
    }
    if (AcceptKeyword("HAVING")) {
      having_agg_items_ = &agg_items;
      having_group_keys_ = &group_keys;
      auto predicate = ParseOr();
      having_agg_items_ = nullptr;
      having_group_keys_ = nullptr;
      RAVEN_RETURN_IF_ERROR(predicate.status());
      source = IrNode::GroupBy(std::move(source), group_keys,
                               std::move(agg_items));
      source = IrNode::Filter(std::move(source), std::move(predicate).value());
    } else {
      source = IrNode::GroupBy(std::move(source), group_keys,
                               std::move(agg_items));
    }
    // Project the select list (hidden HAVING aggregates dropped) on top of
    // the grouped schema.
    for (const auto& item : items) output_names.push_back(item.name);
    source = project_items(std::move(source));
  } else if (any_agg) {
    if (any_plain) {
      return ErrorHere(
          "mixing aggregates and plain select items requires GROUP BY");
    }
    std::vector<ir::AggregateItem> agg_items;
    for (const auto& item : items) agg_items.push_back(item.agg);
    for (const auto& item : agg_items) output_names.push_back(item.output_name);
    // Aggregation folds the whole (filtered) input into one row; LIMIT, if
    // present, applies on top of that row.
    source = IrNode::Aggregate(std::move(source), std::move(agg_items));
  } else {
    for (const auto& item : items) output_names.push_back(item.name);
  }
  if (IsKeyword("HAVING")) {
    return ErrorHere("HAVING requires GROUP BY");
  }

  std::vector<ir::SortKey> sort_keys;
  if (AcceptKeyword("ORDER")) {
    RAVEN_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      ir::SortKey key;
      if (Peek().kind == TokKind::kNumber) {
        // 1-based ordinal into the select list (ORDER BY 2 DESC).
        if (star) {
          return ErrorHere(
              "ORDER BY ordinal requires an explicit select list");
        }
        const double number = Peek().number;
        const auto ordinal = static_cast<std::int64_t>(number);
        if (static_cast<double>(ordinal) != number || ordinal < 1 ||
            ordinal > static_cast<std::int64_t>(output_names.size())) {
          return ErrorHere("ORDER BY ordinal out of range (1.." +
                           std::to_string(output_names.size()) + ")");
        }
        ++pos_;
        key.column = output_names[static_cast<std::size_t>(ordinal - 1)];
      } else {
        RAVEN_ASSIGN_OR_RETURN(key.column, ParseColumnName());
      }
      if (AcceptKeyword("DESC")) {
        key.descending = true;
      } else {
        AcceptKeyword("ASC");
      }
      sort_keys.push_back(std::move(key));
      if (!AcceptOp(",")) break;
    }
  }
  const bool sorted = !sort_keys.empty();

  // Non-sorted plain selects keep the legacy LIMIT-inside-projection shape
  // (the projection is 1:1, so the result is identical); with ORDER BY the
  // projection must be applied first and LIMIT last.
  if (!aggregated && !star && sorted) {
    source = project_items(std::move(source));
  }
  if (sorted) {
    source = IrNode::OrderBy(std::move(source), std::move(sort_keys));
  }
  if (AcceptKeyword("LIMIT")) {
    if (Peek().kind != TokKind::kNumber) {
      return ErrorHere("LIMIT expects a number");
    }
    const double number = Peek().number;
    if (!(number >= 0.0) || std::floor(number) != number) {
      return ErrorHere("LIMIT expects a non-negative integer");
    }
    // 2^63 and up do not fit an int64 (the cast would be undefined); like
    // SQLite, saturate — such a LIMIT keeps every row.
    constexpr double kTwoTo63 = 9223372036854775808.0;
    const std::int64_t limit =
        number >= kTwoTo63 ? std::numeric_limits<std::int64_t>::max()
                           : static_cast<std::int64_t>(number);
    ++pos_;
    source = IrNode::Limit(std::move(source), limit);
  }
  if (aggregated || star || sorted) return source;
  return project_items(std::move(source));
}

Result<ir::IrPlan> SqlParser::ParseStatement() {
  while (AcceptKeyword("WITH") || AcceptOp(",")) {
    if (Peek().kind != TokKind::kIdent) {
      return ErrorHere("expected CTE name after WITH");
    }
    const std::string name = Advance().raw;
    RAVEN_RETURN_IF_ERROR(ExpectKeyword("AS"));
    RAVEN_RETURN_IF_ERROR(ExpectOp("("));
    RAVEN_ASSIGN_OR_RETURN(IrNodePtr cte, ParseSelect());
    RAVEN_RETURN_IF_ERROR(ExpectOp(")"));
    ctes_[name] = std::move(cte);
    if (!IsOp(",")) break;
  }
  RAVEN_ASSIGN_OR_RETURN(IrNodePtr root, ParseSelect());
  if (Peek().kind != TokKind::kEnd) {
    return ErrorHere("trailing tokens after query");
  }
  return ir::IrPlan(std::move(root));
}

}  // namespace

Result<ir::IrPlan> ParseInferenceQuery(const std::string& sql,
                                       const relational::Catalog& catalog,
                                       const ModelNodeBuilder& model_builder) {
  RAVEN_ASSIGN_OR_RETURN(auto tokens, LexSql(sql));
  SqlParser parser(std::move(tokens), catalog, model_builder);
  return parser.ParseStatement();
}

Result<std::string> NormalizeSql(const std::string& sql) {
  RAVEN_ASSIGN_OR_RETURN(auto tokens, LexSql(sql));
  std::string out;
  out.reserve(sql.size());
  for (const auto& tok : tokens) {
    if (tok.kind == TokKind::kEnd) break;
    if (!out.empty()) out += ' ';
    if (tok.kind == TokKind::kString) {
      out += '\'';
      out += tok.raw;
      out += '\'';
    } else {
      out += tok.raw;
    }
  }
  return out;
}

}  // namespace raven::frontend
