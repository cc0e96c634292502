/**
 * @file
 * Per-test temporary file names.
 *
 * CTest runs every test as its own process, often several at once, and
 * sanitizer build trees may run the same test at the same moment. A
 * fixed name under TempDir() lets one test delete or rewrite a file
 * another test is still reading, so each test names its files after
 * itself and its process.
 */

#ifndef BUSARB_TESTS_SUPPORT_TEMP_PATH_HH
#define BUSARB_TESTS_SUPPORT_TEMP_PATH_HH

#include <unistd.h>

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace busarb::test {

/**
 * @param stem File-name prefix naming the caller.
 * @param ext Extension, including its dot.
 * @return A path under TempDir() unique to the running test and
 *         process.
 */
inline std::string
uniqueTempPath(const std::string &stem, const std::string &ext)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = stem + "_" + info->test_suite_name() + "_" +
                       info->name() + "_" + std::to_string(::getpid());
    // Parameterized tests carry '/' in their names.
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + name + ext;
}

} // namespace busarb::test

#endif // BUSARB_TESTS_SUPPORT_TEMP_PATH_HH
