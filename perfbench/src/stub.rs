//! The generated HatKV client stub, split into its layer calls.
//!
//! The traced run cannot time the codec inside `HatKVClient`, so it issues
//! the same sequence the stub does — one-sided try, `encode_call`,
//! `HatClient::call`, `decode_reply` — with a span around each. The
//! encoders below write the bytes the generated stub writes; the tests
//! check them against the generated server skeleton.

use hatrpc_core::dispatch::{decode_reply, encode_call};
use hatrpc_core::protocol::{TInputProtocol, TOutputProtocol, TType};
use hatrpc_core::Result;

/// One argument field (field ids count from 1).
pub enum Arg<'a> {
    Bin(&'a [u8]),
    List(&'a [Vec<u8>]),
}

/// Encode a call the way the generated stub does.
pub fn encode(func: &str, seq: i32, args: &[Arg<'_>]) -> Vec<u8> {
    encode_call(func, seq, |out| {
        out.write_struct_begin("args");
        for (id, arg) in (1i16..).zip(args) {
            match arg {
                Arg::Bin(b) => {
                    out.write_field_begin(TType::String, id);
                    out.write_binary(b);
                }
                Arg::List(items) => {
                    out.write_field_begin(TType::List, id);
                    out.write_list_begin(TType::String, items.len());
                    for item in items.iter() {
                        out.write_binary(item);
                    }
                    out.write_list_end();
                }
            }
            out.write_field_end();
        }
        out.write_field_stop();
        out.write_struct_end();
    })
}

/// A decoded result: `void`, `binary` or `list<binary>`.
#[derive(Debug, PartialEq, Eq)]
pub enum Ret {
    Void,
    Bin(Vec<u8>),
    List(Vec<Vec<u8>>),
}

/// Decode a reply whose success field 0 has type `ty` (`TType::Stop`
/// for `void`), as the generated stub does.
pub fn decode(reply: &[u8], seq: i32, ty: TType) -> Result<Ret> {
    decode_reply(reply, seq, |input| {
        let mut ret = Ret::Void;
        input.read_struct_begin()?;
        loop {
            let (fty, fid) = input.read_field_begin()?;
            if fty == TType::Stop {
                break;
            }
            match (fid, fty) {
                (0, TType::String) if ty == TType::String => ret = Ret::Bin(input.read_binary()?),
                (0, TType::List) if ty == TType::List => {
                    let (_, len) = input.read_list_begin()?;
                    let mut items = Vec::with_capacity(len.min(1 << 20));
                    for _ in 0..len {
                        items.push(input.read_binary()?);
                    }
                    input.read_list_end()?;
                    ret = Ret::List(items);
                }
                _ => input.skip(fty)?,
            }
            input.read_field_end()?;
        }
        input.read_struct_end()?;
        Ok(ret)
    })
}

/// A storage-free HatKV handler: returns loaded-shaped values without
/// touching a database, so timing the generated server skeleton over it
/// measures the server's decode, dispatch and encode alone.
#[derive(Default)]
pub struct CannedKv;

impl hat_hatkv::HatKVHandler for CannedKv {
    fn get(&mut self, _key: Vec<u8>) -> Result<Vec<u8>> {
        Ok(vec![crate::workload::LOAD_BYTE; crate::workload::VALUE_LEN])
    }
    fn put(&mut self, _key: Vec<u8>, _value: Vec<u8>) -> Result<()> {
        Ok(())
    }
    fn multiget(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        Ok(keys
            .iter()
            .map(|_| vec![crate::workload::LOAD_BYTE; crate::workload::VALUE_LEN])
            .collect())
    }
    fn multiput(&mut self, _keys: Vec<Vec<u8>>, _values: Vec<Vec<u8>>) -> Result<()> {
        Ok(())
    }
    fn multiput_txn(&mut self, _keys: Vec<Vec<u8>>, _values: Vec<Vec<u8>>) -> Result<()> {
        Ok(())
    }
    fn multidel_txn(&mut self, _keys: Vec<Vec<u8>>) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_hatkv::{HatKVHandler, HatKVProcessor};

    /// Records what the generated skeleton decoded.
    #[derive(Default)]
    struct Recording(Vec<(String, Vec<Vec<u8>>)>);

    impl HatKVHandler for Recording {
        fn get(&mut self, key: Vec<u8>) -> Result<Vec<u8>> {
            self.0.push(("get".into(), vec![key.clone()]));
            Ok(key)
        }
        fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
            self.0.push(("put".into(), vec![key, value]));
            Ok(())
        }
        fn multiget(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
            self.0.push(("multiget".into(), keys.clone()));
            Ok(keys)
        }
        fn multiput(&mut self, keys: Vec<Vec<u8>>, values: Vec<Vec<u8>>) -> Result<()> {
            self.0.push(("multiput".into(), keys.into_iter().chain(values).collect()));
            Ok(())
        }
        fn multiput_txn(&mut self, _: Vec<Vec<u8>>, _: Vec<Vec<u8>>) -> Result<()> {
            unreachable!()
        }
        fn multidel_txn(&mut self, _: Vec<Vec<u8>>) -> Result<()> {
            unreachable!()
        }
    }

    #[test]
    fn generated_skeleton_reads_what_the_split_stub_writes() {
        let mut p = HatKVProcessor::new(Recording::default());
        let (k, v) = (b"user1".to_vec(), vec![7u8; 1000]);
        let keys = vec![b"a".to_vec(), b"b".to_vec()];
        let vals = vec![vec![1u8; 3], vec![2u8; 4]];

        let reply = p.handle(&encode("get", 1, &[Arg::Bin(&k)]));
        assert_eq!(decode(&reply, 1, TType::String).unwrap(), Ret::Bin(k.clone()));
        let reply = p.handle(&encode("put", 2, &[Arg::Bin(&k), Arg::Bin(&v)]));
        assert_eq!(decode(&reply, 2, TType::Stop).unwrap(), Ret::Void);
        let reply = p.handle(&encode("multiget", 3, &[Arg::List(&keys)]));
        assert_eq!(decode(&reply, 3, TType::List).unwrap(), Ret::List(keys.clone()));
        let reply = p.handle(&encode("multiput", 4, &[Arg::List(&keys), Arg::List(&vals)]));
        assert_eq!(decode(&reply, 4, TType::Stop).unwrap(), Ret::Void);
        assert!(decode(&reply, 5, TType::Stop).is_err(), "sequence numbers are checked");

        let seen = &p.handler().0;
        assert_eq!(seen[0], ("get".into(), vec![k.clone()]));
        assert_eq!(seen[1], ("put".into(), vec![k, v]));
        assert_eq!(seen[2], ("multiget".into(), keys.clone()));
        assert_eq!(seen[3], ("multiput".into(), keys.into_iter().chain(vals).collect()));
    }
}
