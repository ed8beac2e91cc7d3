(* CRC-32 (IEEE 802.3 polynomial), protecting bitstream frames the way
   device programmers do. *)

(* Built once at module initialisation, before any domain can run: a
   [lazy] forced by two domains at once raises
   [CamlinternalLazy.Undefined] under OCaml 5. *)
let table =
  Array.init 256 (fun i ->
      let c = ref (Int32.of_int i) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let update crc bytes =
  let tbl = table in
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  Bytes.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor tbl.(idx) (Int32.shift_right_logical !c 8))
    bytes;
  Int32.logxor !c 0xFFFFFFFFl

let of_bytes bytes = update 0l bytes

let of_string s = of_bytes (Bytes.of_string s)
