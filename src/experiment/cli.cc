#include "experiment/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <utility>

#include <sys/stat.h>

#include "sim/logging.hh"

namespace busarb {

bool
parseLong(const std::string &text, long &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = value;
    return true;
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

double
parseDoubleTokenOrExit(const std::string &program,
                       const std::string &flag, const std::string &token)
{
    double value = 0.0;
    if (!parseDouble(token, value)) {
        std::cerr << program << ": --" << flag << ": bad number '"
                  << token << "'\n";
        std::exit(2);
    }
    return value;
}

std::vector<double>
parseDoubleListOrExit(const std::string &program, const std::string &flag,
                      const std::string &text)
{
    std::vector<double> values;
    std::istringstream is(text);
    std::string token;
    while (std::getline(is, token, ',')) {
        if (token.empty())
            continue;
        values.push_back(parseDoubleTokenOrExit(program, flag, token));
    }
    return values;
}

void
requireParentDirOrExit(const std::string &program,
                       const std::string &flag, const std::string &path)
{
    if (path.empty())
        return;
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return; // relative to the working directory, which exists
    const std::string dir = slash == 0 ? "/" : path.substr(0, slash);
    struct stat st{};
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        std::cerr << program << ": --" << flag << ": directory '" << dir
                  << "' does not exist (cannot write '" << path
                  << "')\n";
        std::exit(2);
    }
}

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
ArgParser::declare(const std::string &name, Kind kind,
                   const std::string &default_value,
                   const std::string &help)
{
    BUSARB_ASSERT(!name.empty() && name[0] != '-',
                  "flag names are given without dashes: ", name);
    BUSARB_ASSERT(!flags_.count(name), "flag declared twice: ", name);
    flags_[name] = Flag{kind, help, default_value, default_value};
    declared_.push_back(name);
}

void
ArgParser::addStringFlag(const std::string &name,
                         const std::string &default_value,
                         const std::string &help)
{
    declare(name, Kind::kString, default_value, help);
}

void
ArgParser::addIntFlag(const std::string &name, long default_value,
                      const std::string &help, long min_value,
                      long max_value)
{
    declare(name, Kind::kInt, std::to_string(default_value), help);
    flags_[name].minValue = min_value;
    flags_[name].maxValue = max_value;
}

void
ArgParser::addDoubleFlag(const std::string &name, double default_value,
                         const std::string &help)
{
    std::ostringstream os;
    os << default_value;
    declare(name, Kind::kDouble, os.str(), help);
}

void
ArgParser::addBoolFlag(const std::string &name, bool default_value,
                       const std::string &help)
{
    declare(name, Kind::kBool, default_value ? "true" : "false", help);
}

bool
ArgParser::validate(const std::string &name, Flag &flag,
                    const std::string &value)
{
    switch (flag.kind) {
      case Kind::kString:
        break;
      case Kind::kInt: {
        long parsed = 0;
        if (!parseLong(value, parsed)) {
            std::cerr << program_ << ": --" << name
                      << " expects an integer, got '" << value << "'\n";
            return false;
        }
        if (parsed < flag.minValue || parsed > flag.maxValue) {
            std::cerr << program_ << ": --" << name << " must be ";
            if (flag.maxValue == std::numeric_limits<long>::max())
                std::cerr << ">= " << flag.minValue;
            else
                std::cerr << "in [" << flag.minValue << ", "
                          << flag.maxValue << "]";
            std::cerr << ", got '" << value << "'\n";
            return false;
        }
        break;
      }
      case Kind::kDouble: {
        double parsed = 0.0;
        if (!parseDouble(value, parsed)) {
            std::cerr << program_ << ": --" << name
                      << " expects a number, got '" << value << "'\n";
            return false;
        }
        break;
      }
      case Kind::kBool:
        if (value != "true" && value != "false") {
            std::cerr << program_ << ": --" << name
                      << " expects true or false, got '" << value
                      << "'\n";
            return false;
        }
        break;
    }
    flag.value = value;
    return true;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    positional_.clear();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << helpText();
            exitCode_ = 0;
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg.erase(0, 2);
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.erase(eq);
            has_value = true;
        }
        auto it = flags_.find(arg);
        if (it == flags_.end()) {
            std::cerr << program_ << ": unknown flag --" << arg << "\n"
                      << "run with --help for usage\n";
            exitCode_ = 2;
            return false;
        }
        Flag &flag = it->second;
        if (!has_value) {
            if (flag.kind == Kind::kBool) {
                value = "true";
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                std::cerr << program_ << ": --" << arg
                          << " needs a value\n";
                exitCode_ = 2;
                return false;
            }
        }
        if (!validate(arg, flag, value)) {
            exitCode_ = 2;
            return false;
        }
        flag.explicitlySet = true;
    }
    return true;
}

const ArgParser::Flag &
ArgParser::find(const std::string &name, Kind kind) const
{
    const auto it = flags_.find(name);
    BUSARB_ASSERT(it != flags_.end(), "undeclared flag: ", name);
    BUSARB_ASSERT(it->second.kind == kind,
                  "flag accessed with the wrong type: ", name);
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return find(name, Kind::kString).value;
}

long
ArgParser::getInt(const std::string &name) const
{
    return std::strtol(find(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::kDouble).value.c_str(), nullptr);
}

bool
ArgParser::getBool(const std::string &name) const
{
    return find(name, Kind::kBool).value == "true";
}

bool
ArgParser::wasSet(const std::string &name) const
{
    const auto it = flags_.find(name);
    BUSARB_ASSERT(it != flags_.end(), "undeclared flag: ", name);
    return it->second.explicitlySet;
}

std::string
ArgParser::helpText() const
{
    std::ostringstream os;
    os << program_ << " — " << summary_ << "\n\nflags:\n";
    for (const auto &name : declared_) {
        const Flag &flag = flags_.at(name);
        os << "  --" << name;
        switch (flag.kind) {
          case Kind::kString:
            os << " <string>";
            break;
          case Kind::kInt:
            os << " <int>";
            break;
          case Kind::kDouble:
            os << " <number>";
            break;
          case Kind::kBool:
            os << " [true|false]";
            break;
        }
        os << "\n      " << flag.help << " (default: "
           << (flag.defaultValue.empty() ? "\"\"" : flag.defaultValue)
           << ")\n";
    }
    os << "  --help\n      print this message\n";
    return os.str();
}

} // namespace busarb
