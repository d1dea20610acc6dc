let version = 1

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* --- primitive writers ---------------------------------------------------- *)

let put_u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then malformed "length %d out of u32 range" n;
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let put_i64 buf x =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff))
  done

(* --- primitive readers ---------------------------------------------------- *)

let need s pos n what =
  if pos < 0 || pos + n > String.length s then
    malformed "truncated %s at offset %d" what pos

let get_u32 s pos =
  need s pos 4 "u32";
  let n = ref 0 in
  for i = 3 downto 0 do
    n := (!n lsl 8) lor Char.code s.[pos + i]
  done;
  !n, pos + 4

let get_i64 s pos =
  need s pos 8 "i64";
  let x = ref 0L in
  for i = 7 downto 0 do
    x := Int64.logor (Int64.shift_left !x 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !x, pos + 8

(* --- values ---------------------------------------------------------------- *)

(* One tag byte per constructor; every variable-length form carries a u32
   length, so the encoding is prefix-unambiguous and self-delimiting. *)
let rec encode_value buf (v : Value.t) =
  match v with
  | Value.Unit -> Buffer.add_char buf 'U'
  | Value.Bool b ->
    Buffer.add_char buf 'B';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Int i ->
    Buffer.add_char buf 'I';
    put_i64 buf (Int64.of_int i)
  | Value.Float f ->
    Buffer.add_char buf 'F';
    put_i64 buf (Int64.bits_of_float f)
  | Value.String s ->
    Buffer.add_char buf 'S';
    put_u32 buf (String.length s);
    Buffer.add_string buf s
  | Value.Pair (a, b) ->
    Buffer.add_char buf 'P';
    encode_value buf a;
    encode_value buf b
  | Value.List vs ->
    Buffer.add_char buf 'L';
    put_u32 buf (List.length vs);
    List.iter (encode_value buf) vs
  | Value.Tag (c, payload) ->
    Buffer.add_char buf 'T';
    put_u32 buf (String.length c);
    Buffer.add_string buf c;
    encode_value buf payload

let encode v =
  let buf = Buffer.create 64 in
  encode_value buf v;
  Buffer.contents buf

(* Every nesting level costs a stack frame; the bound keeps a hostile record
   (a long run of 'P' bytes) a [Malformed] instead of a stack overflow. *)
let max_depth = 512

let rec decode_value s pos depth =
  need s pos 1 "tag";
  if depth >= max_depth then
    malformed "nesting deeper than %d at offset %d" max_depth pos;
  let depth = depth + 1 in
  match s.[pos] with
  | 'U' -> Value.Unit, pos + 1
  | 'B' ->
    need s (pos + 1) 1 "bool";
    (match s.[pos + 1] with
    | '\000' -> Value.Bool false, pos + 2
    | '\001' -> Value.Bool true, pos + 2
    | c -> malformed "bad bool byte %#x at offset %d" (Char.code c) (pos + 1))
  | 'I' ->
    let x, pos = get_i64 s (pos + 1) in
    Value.Int (Int64.to_int x), pos
  | 'F' ->
    let x, pos = get_i64 s (pos + 1) in
    Value.Float (Int64.float_of_bits x), pos
  | 'S' ->
    let n, pos = get_u32 s (pos + 1) in
    need s pos n "string body";
    Value.String (String.sub s pos n), pos + n
  | 'P' ->
    let a, pos = decode_value s (pos + 1) depth in
    let b, pos = decode_value s pos depth in
    Value.Pair (a, b), pos
  | 'L' ->
    let n, pos = get_u32 s (pos + 1) in
    let rec go acc pos k =
      if k = 0 then List.rev acc, pos
      else
        let v, pos = decode_value s pos depth in
        go (v :: acc) pos (k - 1)
    in
    let vs, pos = go [] pos n in
    Value.List vs, pos
  | 'T' ->
    let n, pos = get_u32 s (pos + 1) in
    need s pos n "tag name";
    let c = String.sub s pos n in
    let payload, pos = decode_value s (pos + n) depth in
    Value.Tag (c, payload), pos
  | c -> malformed "unknown tag byte %#x at offset %d" (Char.code c) pos

let decode s =
  let v, pos = decode_value s 0 0 in
  if pos <> String.length s then
    malformed "trailing garbage: %d bytes after value" (String.length s - pos);
  v

(* --- records ---------------------------------------------------------------- *)

let encode_record ~key ~payload =
  let buf = Buffer.create 128 in
  Buffer.add_char buf (Char.chr version);
  encode_value buf key;
  encode_value buf payload;
  Buffer.contents buf

let decode_record s =
  need s 0 1 "record version";
  let v = Char.code s.[0] in
  if v <> version then malformed "unsupported record version %d" v;
  let key, pos = decode_value s 1 0 in
  let payload, pos = decode_value s pos 0 in
  if pos <> String.length s then
    malformed "trailing garbage: %d bytes after record" (String.length s - pos);
  key, payload
