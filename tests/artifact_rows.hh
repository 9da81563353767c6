/**
 * @file
 * Reads back an emitted sweep artifact for the fabric failure tests:
 * its "failed" count and the number of rows tagged ok=false, so a
 * test can pin the schema rule that the two agree.
 */

#ifndef PKTBUF_TESTS_ARTIFACT_ROWS_HH
#define PKTBUF_TESTS_ARTIFACT_ROWS_HH

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace pktbuf::testutil
{

/** The failure accounting of one JSON artifact. */
struct ArtifactRows
{
    std::size_t failed = 0;   //!< the top-level "failed" field
    std::size_t okFalse = 0;  //!< rows carrying "ok": false
};

/** Parse the failure accounting out of the JSON artifact at `path`. */
inline ArtifactRows
readArtifactRows(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string json = os.str();

    ArtifactRows rows;
    const std::string failed_key = "\"failed\": ";
    const auto at = json.find(failed_key);
    if (at != std::string::npos)
        rows.failed = std::strtoull(
            json.c_str() + at + failed_key.size(), nullptr, 10);
    const std::string tag = "\"ok\": false";
    for (auto pos = json.find(tag); pos != std::string::npos;
         pos = json.find(tag, pos + tag.size()))
        ++rows.okFalse;
    return rows;
}

} // namespace pktbuf::testutil

#endif // PKTBUF_TESTS_ARTIFACT_ROWS_HH
