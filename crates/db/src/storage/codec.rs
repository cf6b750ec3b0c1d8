//! Binary row codec: compact tagged encoding of [`Value`]s and rows
//! for heap cells and WAL payloads.

use crate::error::DbError;
use crate::table::Row;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INTEGER: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BLOB: u8 = 4;
const TAG_BOOL_FALSE: u8 = 5;
const TAG_BOOL_TRUE: u8 = 6;

/// Appends the binary encoding of `v` to `out`.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Integer(i) => {
            out.push(TAG_INTEGER);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            out.push(TAG_REAL);
            out.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Blob(b) => {
            out.push(TAG_BLOB);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Boolean(false) => out.push(TAG_BOOL_FALSE),
        Value::Boolean(true) => out.push(TAG_BOOL_TRUE),
    }
}

fn corrupt(what: &str) -> DbError {
    DbError::Io(format!("corrupt value encoding: {what}"))
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], DbError> {
    if buf.len() - *pos < n {
        return Err(corrupt("truncated"));
    }
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

/// Decodes one value from `buf` at `pos`, advancing `pos`.
pub(crate) fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, DbError> {
    let tag = take(buf, pos, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INTEGER => {
            let b: [u8; 8] = take(buf, pos, 8)?.try_into().expect("8 bytes");
            Value::Integer(i64::from_le_bytes(b))
        }
        TAG_REAL => {
            let b: [u8; 8] = take(buf, pos, 8)?.try_into().expect("8 bytes");
            Value::Real(f64::from_bits(u64::from_le_bytes(b)))
        }
        TAG_TEXT => {
            let b: [u8; 4] = take(buf, pos, 4)?.try_into().expect("4 bytes");
            let len = u32::from_le_bytes(b) as usize;
            let bytes = take(buf, pos, len)?;
            Value::Text(String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("bad utf-8"))?)
        }
        TAG_BLOB => {
            let b: [u8; 4] = take(buf, pos, 4)?.try_into().expect("4 bytes");
            let len = u32::from_le_bytes(b) as usize;
            Value::Blob(take(buf, pos, len)?.to_vec())
        }
        TAG_BOOL_FALSE => Value::Boolean(false),
        TAG_BOOL_TRUE => Value::Boolean(true),
        other => return Err(corrupt(&format!("unknown tag {other}"))),
    })
}

/// Encodes a whole row: `u16` value count followed by the values.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    // Sized up front: experiment rows carry kilobyte blobs, and growing
    // the buffer by doubling would copy them several times.
    let payload: usize = row
        .iter()
        .map(|v| match v {
            Value::Text(t) => t.len(),
            Value::Blob(b) => b.len(),
            _ => 0,
        })
        .sum();
    let mut out = Vec::with_capacity(2 + row.len() * 9 + payload);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        encode_value(v, &mut out);
    }
    out
}

/// Decodes a row previously produced by [`encode_row`]; the entire
/// buffer must be consumed.
///
/// # Errors
///
/// [`DbError::Io`] for truncated, trailing or malformed bytes.
pub fn decode_row(buf: &[u8]) -> Result<Row, DbError> {
    let mut pos = 0usize;
    let b: [u8; 2] = take(buf, &mut pos, 2)?.try_into().expect("2 bytes");
    let count = u16::from_le_bytes(b) as usize;
    // Every value takes at least its tag byte, so a declared count
    // beyond the bytes left is corrupt; never reserve past them.
    let mut row = Vec::with_capacity(count.min(buf.len() - pos));
    for _ in 0..count {
        row.push(decode_value(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(corrupt("trailing bytes after row"));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrips_every_value_kind() {
        let row: Row = vec![
            Value::Null,
            Value::Integer(-42),
            Value::Real(3.5),
            Value::Text("héllo".into()),
            Value::Blob(vec![0, 255, 7]),
            Value::Boolean(true),
            Value::Boolean(false),
        ];
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn truncated_row_is_an_error() {
        let bytes = encode_row(&[Value::Text("abcdef".into())]);
        assert!(decode_row(&bytes[..bytes.len() - 2]).is_err());
        assert!(decode_row(&[9]).is_err());
    }
}
