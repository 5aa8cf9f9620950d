package netsim

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseIPv4 parses a strict dotted-quad IPv4 address: exactly four
// octets, each decimal digits only (no sign), no leading zeros, none over
// 255. It lives here, next to the IP type, so every layer that accepts
// addresses from the wire or a command line — feedback ingest, the
// daemon, the cluster router, inano-query — agrees on one parser.
func ParseIPv4(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bad IPv4 address %q", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		// Atoi takes a leading sign; only the first byte can hold one.
		if err != nil || p[0] < '0' || p[0] > '9' || v > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("bad IPv4 address %q", s)
		}
		ip = ip<<8 | uint32(v)
	}
	return IP(ip), nil
}
