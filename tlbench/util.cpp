/**
 * @file
 * tlbench support code: statistics, child processes and daemons,
 * files, the ground-truth table and the query scripts.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "src/workload/scenarios.h"

namespace fs = std::filesystem;
using namespace tracelens;
using namespace tracelens::server;

namespace tlbench
{

// ------------------------------------------------------------ stats

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

// -------------------------------------------------------- processes

namespace
{

double
statusFieldMb(pid_t pid, const std::string &field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field + ":", 0) == 0) {
            std::istringstream fields(line.substr(field.size() + 1));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

} // namespace

double
peakRssMb(pid_t pid)
{
    return statusFieldMb(pid, "VmHWM");
}

double
rssMb(pid_t pid)
{
    return statusFieldMb(pid, "VmRSS");
}

Child::~Child()
{
    kill();
}

std::unique_ptr<Child>
Child::spawn(const std::vector<std::string> &argv, const std::string &outPath,
             const std::string &errPath)
{
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        // A child must never outlive the benchmark, even if the
        // benchmark itself is killed.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        const int err =
            open(errPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        const int out =
            outPath == errPath
                ? err
                : open(outPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0)
            _exit(126);
        dup2(out, STDOUT_FILENO);
        dup2(err, STDERR_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    auto child = std::make_unique<Child>();
    child->pid_ = pid;
    return child;
}

int
Child::wait(std::chrono::milliseconds timeout)
{
    if (pid_ <= 0)
        return -1;
    const auto deadline = Clock::now() + timeout;
    while (true) {
        int status = 0;
        struct rusage usage = {};
        const pid_t done = wait4(pid_, &status, WNOHANG, &usage);
        if (done == pid_) {
            pid_ = -1;
            peakRssMb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        }
        if (done < 0) {
            pid_ = -1;
            return -1;
        }
        if (Clock::now() >= deadline) {
            kill();
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

void
Child::kill()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
}

int
runChild(const std::vector<std::string> &argv, const std::string &outPath,
         const std::string &errPath, std::chrono::milliseconds timeout,
         double *peakRss)
{
    std::unique_ptr<Child> child = Child::spawn(argv, outPath, errPath);
    const int code = child->wait(timeout);
    if (peakRss != nullptr)
        *peakRss = child->peakRssMb();
    return code;
}

// ----------------------------------------------------------- daemon

Daemon::Daemon(std::string name, const std::string &cli,
               const std::vector<std::string> &serveArgs,
               const std::string &dir)
    : name_(std::move(name)), log_(dir + "/" + name_ + ".log")
{
    const std::string portFile = dir + "/" + name_ + ".port";
    std::vector<std::string> argv = {cli,         "serve",
                                     "--listen",  "127.0.0.1:0",
                                     "--port-file", portFile,
                                     "--log-level", "warn"};
    argv.insert(argv.end(), serveArgs.begin(), serveArgs.end());
    child_ = Child::spawn(argv, log_, log_);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
        // The daemon writes "PORT\n"; the newline marks it complete.
        const std::string text = readFile(portFile);
        if (!text.empty() && text.back() == '\n') {
            port_ = static_cast<std::uint16_t>(std::stoul(text));
            return;
        }
        int status = 0;
        if (waitpid(child_->pid(), &status, WNOHANG) == child_->pid())
            throw std::runtime_error("daemon " + name_ +
                                     " exited at start-up: " +
                                     readFile(log_));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    throw std::runtime_error("daemon " + name_ + " never wrote its port");
}

Daemon::~Daemon()
{
    if (child_ && child_->running())
        child_->kill();
}

Session
Daemon::connect() const
{
    SessionOptions options;
    options.prefer = ProtocolPreference::V2;
    options.ioTimeout = std::chrono::milliseconds(120000);
    Expected<Session> session = Session::connect("127.0.0.1", port_, options);
    if (!session)
        throw std::runtime_error("connect to " + name_ + ": " +
                                 session.error().render());
    return std::move(session.value());
}

JsonValue
Daemon::metrics() const
{
    Session session = connect();
    return expectOk(session.call(Method::Metrics, JsonValue::makeObject()),
                    name_ + " metrics")
        .result;
}

void
Daemon::stop()
{
    if (!child_ || !child_->running())
        return;
    try {
        Session session = connect();
        (void)session.shutdown();
    } catch (const std::exception &) {
        // Fall through to the bounded wait; it kills on timeout.
    }
    child_->wait(std::chrono::seconds(20));
}

Response
expectOk(Expected<Response> response, const std::string &what)
{
    if (!response)
        throw std::runtime_error(what + ": " + response.error().render());
    if (!response.value().ok)
        throw std::runtime_error(what + ": " +
                                 response.value().error.message);
    return std::move(response.value());
}

// ------------------------------------------------------------ files

std::unique_ptr<TraceSource>
openCorpus(const std::string &path)
{
    Expected<std::unique_ptr<TraceSource>> source = openSource(path);
    if (!source)
        throw std::runtime_error(source.error().render());
    return std::move(source.value());
}

void
makeDirs(const std::string &path)
{
    fs::create_directories(path);
}

void
removeTree(const std::string &path)
{
    std::error_code ignored;
    fs::remove_all(path, ignored);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::uint64_t
treeBytes(const std::string &path)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : fs::recursive_directory_iterator(path, ec))
        if (entry.is_regular_file())
            total += entry.file_size();
    return total;
}

// ------------------------------------------------------------ truth

std::uint64_t
Truth::count(const std::string &scenario) const
{
    return static_cast<std::uint64_t>(
        std::count_if(instances.begin(), instances.end(),
                      [&](const auto &row) { return row.first == scenario; }));
}

DurationNs
Truth::totalDuration() const
{
    DurationNs total = 0;
    for (const auto &row : instances)
        total += row.second;
    return total;
}

Tally
countClasses(const Truth &truth, const std::string &scenario,
             DurationNs tFast, DurationNs tSlow)
{
    Tally tally;
    for (const auto &[name, duration] : truth.instances) {
        if (name != scenario)
            continue;
        if (duration < tFast) {
            ++tally.fast;
        } else if (duration > tSlow) {
            ++tally.slow;
            tally.slowDuration += duration;
        } else {
            ++tally.middle;
        }
    }
    return tally;
}

void
writeTruth(const std::string &path, const TruthRows &rows)
{
    std::ofstream out(path);
    for (const auto &[scenario, duration] : rows)
        out << scenario << '\t' << duration << '\n';
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

Truth
readTruth(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    Truth truth;
    std::string scenario;
    DurationNs duration = 0;
    while (in >> scenario >> duration)
        truth.instances.emplace_back(scenario, duration);
    return truth;
}

// ---------------------------------------------------------- scripts

JsonValue
Query::params(const std::string &corpus) const
{
    JsonValue params = JsonValue::makeObject();
    params.set("corpus", JsonValue(corpus));
    params.set("scenario", JsonValue(scenario));
    params.set("tfast_ms", JsonValue(tFastMs));
    params.set("tslow_ms", JsonValue(tSlowMs));
    // `mine` bounds its list with max_patterns, `analyze` with top.
    params.set(method == Method::Mine ? "max_patterns" : "top",
               JsonValue(top));
    return params;
}

Query
catalogQuery(const std::string &scenario)
{
    const ScenarioSpec &spec = scenarioByName(scenario);
    Query query;
    query.scenario = scenario;
    query.tFastMs = toMs(spec.tFast);
    query.tSlowMs = toMs(spec.tSlow);
    return query;
}

Query
freshQuery(std::size_t index, std::uint64_t round, std::uint64_t seed)
{
    const std::vector<std::string> names = catalogScenarios();
    const ScenarioSpec &spec = scenarioByName(names[index]);
    Query query;
    query.method = (round + index) % 2 == 0 ? Method::Analyze : Method::Mine;
    query.scenario = spec.name;
    // T_fast cycles through 16 values below the catalog's and T_slow
    // steps up from the catalog's every 16 rounds, so (T_fast, T_slow)
    // never repeats and T_fast < T_slow holds for every entry. The
    // steps are small, so the class sizes, and with them the cost of a
    // query, stay near the catalog's over the whole script. The seed
    // shifts every threshold a little, so seeds differ in their
    // queries as well as in their corpora.
    const double jitter = 1.0 + 0.004 * static_cast<double>(seed % 5);
    query.tFastMs =
        toMs(spec.tFast) * (0.60 + 0.015 * double(round % 16)) * jitter;
    query.tSlowMs =
        toMs(spec.tSlow) * (1.00 + 0.005 * double(round / 16)) * jitter;
    query.top = 5;
    return query;
}

std::vector<std::string>
catalogScenarios()
{
    std::vector<std::string> names;
    for (const ScenarioSpec &spec : scenarioCatalog())
        names.push_back(spec.name);
    return names;
}

} // namespace tlbench
