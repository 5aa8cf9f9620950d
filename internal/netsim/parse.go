package netsim

import (
	"fmt"
	"strconv"
)

// ParseIPv4 parses a strict dotted-quad IPv4 address: exactly four
// octets, each decimal digits only (no sign), no leading zeros, none over
// 255. Every layer that takes an address from the wire or a command line
// reads it here, and a successful parse allocates nothing, on a string and
// on a []byte alike. The grammar admits one spelling of each address, so
// an accepted string is its own IP.AppendTo form byte for byte: a door
// echoes an address by printing it, never by keeping the request's text.
func ParseIPv4[T string | []byte](s T) (IP, error) {
	if ip, n := scanIPv4(s); n == len(s) {
		return ip, nil
	}
	return 0, fmt.Errorf("bad IPv4 address %q", s)
}

// scanIPv4 reads a strict dotted quad at the start of s, returning the
// address and the number of bytes it spans (-1 when s does not start with
// one).
//
//inano:zeroalloc
func scanIPv4[T string | []byte](s T) (IP, int) {
	var ip uint32
	i := 0
	for oct := 0; oct < 4; oct++ {
		if oct > 0 {
			if i >= len(s) || s[i] != '.' {
				return 0, -1
			}
			i++
		}
		start := i
		v := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' && i-start < 3 {
			v = v*10 + int(s[i]-'0')
			i++
		}
		if i == start || v > 255 || (s[start] == '0' && i-start > 1) {
			return 0, -1
		}
		ip = ip<<8 | uint32(v)
	}
	return IP(ip), i
}

// AppendTo appends the dotted-quad form of ip to b: the one spelling
// ParseIPv4 accepts for it.
//
//inano:zeroalloc
func (ip IP) AppendTo(b []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		if shift < 24 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(uint8(ip>>uint(shift))), 10)
	}
	return b
}
