#include "sim/data_oracle.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace skybyte {

void
DataOracle::onWrite(Addr line, LineValue value)
{
    Line &l = lines_[line];
    l.value = value;
    if (l.readsInFlight > 0)
        l.inFlightWrites.push_back(value);
}

DataOracle::Ticket
DataOracle::onRead(Addr line)
{
    Line &l = lines_[line];
    l.readsInFlight++;
    return {line, l.value,
            static_cast<std::uint32_t>(l.inFlightWrites.size())};
}

void
DataOracle::finish(const Ticket &t, bool data, LineValue value)
{
    Line *l = lines_.find(t.line);
    if (l == nullptr || l->readsInFlight == 0)
        throw std::logic_error("data oracle: unmatched read response");
    if (data) {
        checkedReads_++;
        if (value != 0)
            nonzeroReads_++;
        const auto later = l->inFlightWrites.begin() + t.seenWrites;
        if (value != t.issued
            && std::find(later, l->inFlightWrites.end(), value)
                   == l->inFlightWrites.end()) {
            std::ostringstream msg;
            msg << "data oracle: line 0x" << std::hex << t.line
                << std::dec << " read " << value << ", expected "
                << t.issued << " or a value written after the read "
                << "was issued";
            throw std::logic_error(msg.str());
        }
    }
    if (--l->readsInFlight == 0) {
        l->inFlightWrites.clear();
        if (l->value == 0)
            lines_.erase(t.line);
    }
}

} // namespace skybyte
