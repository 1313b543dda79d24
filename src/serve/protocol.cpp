#include "serve/protocol.hpp"

#include <sstream>

#include "util/check.hpp"

namespace maxutil::serve {

using maxutil::util::ensure;

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kTopology: return "topology";
    case RequestKind::kAdmit: return "admit";
    case RequestKind::kQuery: return "query";
  }
  return "?";
}

std::string Request::describe() const {
  switch (kind) {
    case RequestKind::kTopology:
      return event.describe();
    case RequestKind::kAdmit: {
      std::ostringstream out;
      out << "admit=" << event.commodity;
      if (event.factor != 1.0) out << "*" << event.factor;
      out << "@" << event.time;
      return out.str();
    }
    case RequestKind::kQuery:
      return "query=" + event.commodity + "@" + std::to_string(event.time);
  }
  return "?";
}

Request parse_request(const std::string& line) {
  ensure(line.find(',') == std::string::npos,
         "serve: '" + line + "' has a comma — one request per line");
  const std::size_t eq = line.find('=');
  ensure(eq != std::string::npos,
         "serve: '" + line + "' is not key=value@T");
  const std::string key = line.substr(0, eq);

  Request request;
  if (key == "admit" || key == "query") {
    // Reuse the churn grammar machinery by parsing the payload as an
    // arrive event: same COMMODITY[*F]@T shape, same error behaviour.
    // Error messages are rewritten to quote the operator's own line.
    ctrl::ChurnPlan plan;
    try {
      plan = ctrl::parse_churn_plan("arrive" + line.substr(eq));
    } catch (const util::CheckError& e) {
      std::string message = e.what();
      const std::string alias = "'arrive" + line.substr(eq) + "'";
      for (std::size_t pos = message.find(alias); pos != std::string::npos;
           pos = message.find(alias, pos)) {
        message.replace(pos, alias.size(), "'" + line + "'");
      }
      throw util::CheckError(message);
    }
    ensure(plan.events.size() == 1, "serve: '" + line + "' is empty");
    request.event = plan.events.front();
    if (key == "admit") {
      request.kind = RequestKind::kAdmit;
    } else {
      request.kind = RequestKind::kQuery;
      ensure(request.event.factor == 1.0,
             "serve: query '" + line + "' takes no *FACTOR");
    }
  } else {
    const ctrl::ChurnPlan plan = ctrl::parse_churn_plan(line);
    ensure(plan.events.size() == 1,
           "serve: '" + line + "' did not parse to one event");
    request.kind = RequestKind::kTopology;
    request.event = plan.events.front();
  }
  return request;
}

std::string Script::describe() const {
  std::string out;
  for (const Request& request : requests) {
    out += request.describe();
    out += "\n";
  }
  return out;
}

void for_each_request(std::istream& in,
                      const std::function<void(Request&&)>& fn) {
  std::string line;
  std::size_t line_no = 0;
  std::size_t last_time = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.pop_back();
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.erase(line.begin());
    }
    if (line.empty()) continue;

    Request request;
    try {
      request = parse_request(line);
    } catch (const util::CheckError& e) {
      throw util::CheckError("line " + std::to_string(line_no) + ": " +
                             util::strip_check_preamble(e.what()));
    }
    request.line = line_no;
    ensure(first || request.time() >= last_time,
           "line " + std::to_string(line_no) + ": timestamp @" +
               std::to_string(request.time()) + " decreases (previous @" +
               std::to_string(last_time) +
               "); serve streams must be time-ordered");
    first = false;
    last_time = request.time();
    fn(std::move(request));
  }
}

Script parse_script(std::istream& in) {
  Script script;
  for_each_request(in, [&script](Request&& request) {
    script.requests.push_back(std::move(request));
  });
  return script;
}

Script parse_script_text(const std::string& text) {
  std::istringstream in(text);
  return parse_script(in);
}

}  // namespace maxutil::serve
