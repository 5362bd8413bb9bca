/**
 * @file
 * Contract coverage for the offline trace reader: inputs that are not
 * .grpbin traces are refused with one typed error (never an empty
 * success), the invariant checker reports 1-based record positions
 * instead of aborting, and the JSONL view renders a pinned schema.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_reader.hh"

using namespace grp;
using namespace grp::obs;

namespace
{

TraceLine
make(Tick t, TraceEvent event, Addr addr = 0,
     HintClass hint = HintClass::None, int channel = -1,
     int64_t extra = -1, int64_t site = -1, bool warm = false,
     bool carry = false)
{
    TraceLine line;
    line.t = t;
    line.event = event;
    line.addr = addr;
    line.hint = hint;
    line.channel = channel;
    line.extra = extra;
    line.site = site;
    line.warm = warm;
    line.carry = carry;
    return line;
}

TEST(TraceReaderErrors, MissingFileSetsOpenFailed)
{
    const TraceParseResult result =
        readTraceFile("/nonexistent/grp-trace-reader-test.grpbin");
    EXPECT_TRUE(result.openFailed);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].find("cannot open"), std::string::npos);
}

TEST(TraceReaderErrors, NonGrpbinInputIsOneTypedError)
{
    // A JSONL rendering, an empty input and a short prefix of the
    // magic are all refused the same way: no records, not binary,
    // exactly one error naming the expected format.
    const std::string jsonl =
        "{\"t\":5,\"ev\":\"issue\",\"addr\":4096}\n"
        "{\"t\":9,\"ev\":\"fill\",\"addr\":4096}\n";
    for (const std::string &data :
         {jsonl, std::string(), std::string("GRP")}) {
        const TraceParseResult result = readTraceData(data);
        EXPECT_FALSE(result.binary);
        EXPECT_FALSE(result.openFailed);
        EXPECT_TRUE(result.lines.empty());
        ASSERT_EQ(result.errors.size(), 1u);
        EXPECT_NE(result.errors[0].find(".grpbin"), std::string::npos);
    }

    // The file path refuses it identically.
    const std::string path =
        ::testing::TempDir() + "grp_reader_not_grpbin.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << jsonl;
    }
    const TraceParseResult file = readTraceFile(path);
    std::remove(path.c_str());
    EXPECT_FALSE(file.binary);
    EXPECT_FALSE(file.openFailed);
    EXPECT_TRUE(file.lines.empty());
    EXPECT_EQ(file.errors.size(), 1u);
}

TEST(TraceReaderErrors, AnalyzerReportsLineNumbersNotAborts)
{
    // A use without a fill and a double fill: both must surface as
    // positioned violations, and the analysis must still complete.
    const std::vector<TraceLine> lines = {
        make(0, TraceEvent::Issue, 64, HintClass::Spatial),
        make(0, TraceEvent::FirstUse, 64),
        make(0, TraceEvent::Issue, 128, HintClass::Spatial),
        make(0, TraceEvent::Fill, 128, HintClass::Spatial),
        make(0, TraceEvent::Fill, 128, HintClass::Spatial),
    };
    const TraceAnalysis analysis = analyzeTrace(lines);

    ASSERT_EQ(analysis.violations.size(), 2u);
    EXPECT_EQ(analysis.violations[0].line, 2u);
    EXPECT_NE(analysis.violations[0].message.find("in flight"),
              std::string::npos);
    EXPECT_EQ(analysis.violations[1].line, 5u);
    EXPECT_NE(analysis.violations[1].message.find("filled twice"),
              std::string::npos);
    EXPECT_EQ(analysis.records, 5u);
}

TEST(JsonlView, GoldenLinePerEvent)
{
    // One record per event type. Together they cover every optional
    // field present and absent, the zero values that are still
    // printed (ch 0, x 0, site 0), and 64-bit ticks and addresses.
    const struct
    {
        TraceLine line;
        const char *expected;
    } cases[] = {
        {make(0, TraceEvent::HintTrigger, 0x40000000, HintClass::Spatial,
              -1, -1, 3),
         "{\"t\":0,\"ev\":\"hintTrigger\",\"addr\":1073741824,"
         "\"hint\":\"spatial\",\"site\":3}\n"},
        {make(5, TraceEvent::Enqueue, 4096, HintClass::Pointer, -1, 63,
              0, true),
         "{\"t\":5,\"ev\":\"enqueue\",\"addr\":4096,\"hint\":\"pointer\","
         "\"x\":63,\"site\":0,\"warm\":true}\n"},
        {make(5, TraceEvent::Drop, 8192, HintClass::Recursive, -1, 0),
         "{\"t\":5,\"ev\":\"drop\",\"addr\":8192,\"hint\":\"recursive\","
         "\"x\":0}\n"},
        {make(1000, TraceEvent::Issue, 4160, HintClass::Indirect, 0, 2,
              7),
         "{\"t\":1000,\"ev\":\"issue\",\"addr\":4160,"
         "\"hint\":\"indirect\",\"ch\":0,\"x\":2,\"site\":7}\n"},
        {make(1001, TraceEvent::Stall),
         "{\"t\":1001,\"ev\":\"stall\"}\n"},
        {make(1002, TraceEvent::Filtered, 64, HintClass::Stride, -1, -1,
              4294967294),
         "{\"t\":1002,\"ev\":\"filtered\",\"addr\":64,"
         "\"hint\":\"stride\",\"site\":4294967294}\n"},
        {make(1500, TraceEvent::Fill, 4160, HintClass::Spatial, 3, -1, 7,
              true, true),
         "{\"t\":1500,\"ev\":\"fill\",\"addr\":4160,\"hint\":\"spatial\","
         "\"ch\":3,\"site\":7,\"warm\":true,\"carry\":true}\n"},
        {make(123456789012, TraceEvent::FirstUse, 0xfffffffffffc0,
              HintClass::Pointer, 1, 900, 12345, true, true),
         "{\"t\":123456789012,\"ev\":\"firstUse\","
         "\"addr\":4503599627370432,\"hint\":\"pointer\",\"ch\":1,"
         "\"x\":900,\"site\":12345,\"warm\":true,\"carry\":true}\n"},
        {make(2000, TraceEvent::EvictedUnused, 0x10, HintClass::None, -1,
              -1, -1, false, true),
         "{\"t\":2000,\"ev\":\"evictedUnused\",\"addr\":16,"
         "\"carry\":true}\n"},
        {make(2000, TraceEvent::EvictVictim, 0xdeadbeef00,
              HintClass::Pointer, -1, -1, 9),
         "{\"t\":2000,\"ev\":\"evictVictim\",\"addr\":956397711104,"
         "\"hint\":\"pointer\",\"site\":9}\n"},
        {make(2100, TraceEvent::PollutionMiss, 0xdeadbeef00),
         "{\"t\":2100,\"ev\":\"pollutionMiss\","
         "\"addr\":956397711104}\n"},
        {make(4096, TraceEvent::CtrlTransition, 0, HintClass::Spatial, 2,
              1),
         "{\"t\":4096,\"ev\":\"ctrlTransition\",\"hint\":\"spatial\","
         "\"ch\":2,\"x\":1}\n"},
    };
    std::vector<bool> seen(
        static_cast<size_t>(TraceEvent::CtrlTransition) + 1, false);
    for (const auto &c : cases) {
        EXPECT_EQ(jsonlLine(c.line), c.expected);
        seen[static_cast<size_t>(c.line.event)] = true;
    }
    for (size_t e = 0; e < seen.size(); ++e)
        EXPECT_TRUE(seen[e]) << "no golden line for event " << e;
}

} // namespace
