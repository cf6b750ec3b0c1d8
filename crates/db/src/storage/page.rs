//! Page-level constants and helpers: size, identifiers, checksums and
//! little-endian field access.

/// Size of every page in the data file, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifies one page in the data file. Page 0 is the header page;
/// id 0 therefore doubles as the null link in page chains.
pub type PageId = u32;

/// Magic bytes at offset 0 of the header page.
pub const MAGIC: &[u8; 8] = b"GOOFIPG1";

/// On-disk format version written to the header page.
pub const FORMAT_VERSION: u32 = 1;

/// Reads a little-endian `u16` at `off`.
pub(crate) fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Writes a little-endian `u16` at `off`.
pub(crate) fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` at `off`.
pub(crate) fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Writes a little-endian `u32` at `off`.
pub(crate) fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
///
/// Every WAL record carries this checksum so recovery can tell a torn
/// or corrupted tail from a valid prefix. Eight bytes per step
/// ("slicing-by-8"), the tail byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][w[4] as usize]
            ^ CRC_TABLES[2][w[5] as usize]
            ^ CRC_TABLES[1][w[6] as usize]
            ^ CRC_TABLES[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][i]` is
/// the CRC of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_definition_at_every_length() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &byte in data {
                crc ^= byte as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..data.len() {
            for start in [0, 1, 3, 7] {
                let slice = &data[start.min(len)..len];
                assert_eq!(crc32(slice), bytewise(slice), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn le_helpers_roundtrip() {
        let mut buf = [0u8; 16];
        put_u16(&mut buf, 3, 0xBEEF);
        put_u32(&mut buf, 8, 0xDEAD_BEEF);
        assert_eq!(get_u16(&buf, 3), 0xBEEF);
        assert_eq!(get_u32(&buf, 8), 0xDEAD_BEEF);
    }
}
